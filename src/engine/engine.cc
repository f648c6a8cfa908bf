#include "engine/engine.hh"

#include <chrono>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "core/timing_model.hh"
#include "obs/trace.hh"

namespace raceval::engine
{

namespace
{

uint64_t
mixedKey(const EvalKey &key)
{
    return Fingerprinter::mix64(key.model
                                ^ Fingerprinter::mix64(key.instance));
}

} // namespace

// ----------------------------------------------------------- EngineStats

std::string
EngineStats::summary() const
{
    std::string out;
    out += strprintf(
        "engine: %llu instances, %llu recorded (%llu insts; "
        "%.1f MiB packed)\n",
        static_cast<unsigned long long>(bank.instances),
        static_cast<unsigned long long>(bank.recordings),
        static_cast<unsigned long long>(bank.recordedInsts),
        static_cast<double>(bank.residentBytes) / (1024.0 * 1024.0));
    out += strprintf(
        "        cache: %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu entries\n",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        100.0 * cache.hitRate(),
        static_cast<unsigned long long>(cache.entries));
    out += strprintf(
        "        %llu requests -> %llu fresh evals (%llu replays, "
        "%llu warm-file hits) in "
        "%.2f s = %.0f fresh evals/s; %llu batches "
        "(%llu submitted, %llu deduplicated)",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(evaluations),
        static_cast<unsigned long long>(bank.replays),
        static_cast<unsigned long long>(warmFileHits),
        evalSeconds, experimentsPerSecond(),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(batchSubmissions),
        static_cast<unsigned long long>(batchDeduplicated));
    out += strprintf(
        "\n        step cost: %llu insts simulated, %.1f ns/inst, "
        "%.1f simulated MIPS",
        static_cast<unsigned long long>(instsSimulated), nsPerInst(),
        simulatedMips());
    return out;
}

std::string
EngineStats::json() const
{
    JsonWriter w;
    w.beginObject()
        .field("instances", bank.instances)
        .field("recordings", bank.recordings)
        .field("recorded_insts", bank.recordedInsts)
        .field("packed_bytes", bank.residentBytes)
        .field("replays", bank.replays)
        .field("cache_hits", cache.hits)
        .field("cache_misses", cache.misses)
        .field("cache_hit_rate", cache.hitRate())
        .field("cache_entries", cache.entries)
        .field("requests", requests)
        .field("fresh_evals", evaluations)
        .field("warm_file_hits", warmFileHits)
        .field("eval_seconds", evalSeconds)
        .field("fresh_evals_per_s", experimentsPerSecond())
        .field("batches", batches)
        .field("batch_submitted", batchSubmissions)
        .field("batch_deduplicated", batchDeduplicated)
        .field("insts_simulated", instsSimulated)
        .field("ns_per_inst", nsPerInst())
        .field("simulated_mips", simulatedMips())
        .endObject();
    return w.str();
}

// ------------------------------------------------------------ EvalEngine

EvalEngine::EvalEngine(core::ModelFamily family, EngineOptions options)
    : fam(family), pool(options.threads)
{
}

size_t
EvalEngine::addInstance(const isa::Program &program)
{
    return bank.add(program);
}

EvalKey
EvalEngine::modelKey(core::ModelFamily family,
                     const core::CoreParams &model,
                     size_t instance) const
{
    // One key family for everything: raced configurations are
    // materialized first and keyed by model content, so racing, error
    // reports and perturbation sweeps all share cache entries. The
    // cost tag keeps different metrics apart; the timing
    // family's salt keeps model families apart (CoreParams content
    // alone cannot -- the same struct configures every family).
    return EvalKey{Fingerprinter::mix64(
                       fingerprint(model)
                       ^ Fingerprinter::mix64(costTagValue)
                       ^ Fingerprinter::mix64(
                           core::modelFamilySalt(family))),
                   instance};
}

core::CoreParams
EvalEngine::materialize(const tuner::Configuration &config) const
{
    RV_ASSERT(modelFn != nullptr,
              "engine: configuration evaluation without a model fn");
    return modelFn(config);
}

core::CoreStats
EvalEngine::replayRun(const core::CoreParams &model, size_t instance)
{
    return replayRun(fam, model, instance);
}

core::CoreStats
EvalEngine::replayRun(core::ModelFamily family,
                      const core::CoreParams &model, size_t instance)
{
    // The hot path: replay the packed SoA form through the family's
    // one replay loop (core/replay.hh).
    std::shared_ptr<const vm::PackedTrace> trace = bank.replay(instance);
    return core::makeTimingModel(family, model)->run(*trace);
}

uint64_t
EvalEngine::programFingerprint(size_t instance) const
{
    std::lock_guard<std::mutex> lock(fpMutex);
    if (instance >= instanceFps.size())
        instanceFps.resize(instance + 1, 0);
    if (instanceFps[instance] == 0)
        instanceFps[instance] = fingerprint(bank.program(instance));
    return instanceFps[instance];
}

bool
EvalEngine::warmLookup(core::ModelFamily family,
                       const core::CoreParams &model, size_t instance,
                       EvalValue &out)
{
    // A mapped warm file answers before any simulation runs. Its keys
    // carry the program fingerprint (not the bank-local id), as
    // saveCache() writes them.
    if (!warm)
        return false;
    EvalKey disk_key{modelKey(family, model, instance).model,
                     programFingerprint(instance)};
    if (!warm->lookup(disk_key, out))
        return false;
    ++warmFileHitCount;
    return true;
}

EvalValue
EvalEngine::scoreRun(const core::CoreStats &run, size_t instance)
{
    EvalValue value;
    value.simCpi = run.cpi();
    value.cost = costFn ? costFn(run, instance) : value.simCpi;
    ++evaluations;
    return value;
}

EvalValue
EvalEngine::computeFresh(core::ModelFamily family,
                         const core::CoreParams &model, size_t instance)
{
    RV_SPAN("engine.eval", static_cast<uint64_t>(instance));
    EvalValue served;
    if (warmLookup(family, model, instance, served))
        return served;

    core::CoreStats run = replayRun(family, model, instance);
    instsSimulatedCount += run.instructions;
    return scoreRun(run, instance);
}

void
EvalEngine::chargeWall(std::chrono::steady_clock::time_point start)
{
    auto elapsed = std::chrono::steady_clock::now() - start;
    evalNanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

void
EvalEngine::markHeldOut(size_t instance)
{
    RV_ASSERT(instance < bank.size(),
              "engine: markHeldOut on unknown instance %zu", instance);
    if (heldOutFlags.size() < bank.size())
        heldOutFlags.resize(bank.size(), false);
    heldOutFlags[instance] = true;
}

double
EvalEngine::evaluate(const tuner::Configuration &config, size_t instance)
{
    RV_ASSERT(!isHeldOut(instance),
              "engine: racing experiment against held-out instance %zu "
              "(hold-out workloads are report-only)", instance);
    return evaluateModel(materialize(config), instance).cost;
}

EvalValue
EvalEngine::evaluateModel(const core::CoreParams &model, size_t instance)
{
    return evaluateModel(fam, model, instance);
}

EvalValue
EvalEngine::evaluateModel(core::ModelFamily family,
                          const core::CoreParams &model, size_t instance)
{
    ++requests;
    EvalKey key = modelKey(family, model, instance);
    EvalValue value;
    if (cache.lookup(key, value))
        return value;
    auto start = std::chrono::steady_clock::now();
    value = computeFresh(family, model, instance);
    chargeWall(start);
    cache.insert(key, value);
    return value;
}

std::vector<double>
EvalEngine::evaluateMany(const std::vector<tuner::EvalPair> &pairs)
{
    BatchEvaluator batch(*this);
    std::vector<BatchEvaluator::Ticket> tickets;
    tickets.reserve(pairs.size());
    for (const auto &[config, instance] : pairs)
        tickets.push_back(batch.submit(config, instance));
    batch.collect();
    std::vector<double> costs;
    costs.reserve(pairs.size());
    for (BatchEvaluator::Ticket ticket : tickets)
        costs.push_back(batch.cost(ticket));
    return costs;
}

namespace
{

/**
 * Persisted-cache format stamp. Since every key carries its timing
 * family's salt, one cache file safely serves engines of every family
 * (the stamp used to encode the engine's in-order/OoO kind; that
 * distinction now lives in the keys, so files written by the
 * pre-family format are refused by version).
 */
uint64_t
persistDigest()
{
    return Fingerprinter()
        .mix(uint64_t{0x524e47ull})
        .mix(uint64_t{3}) // family-salted keys, v3 sorted file format
        .value();
}

} // namespace

size_t
EvalEngine::saveCache(const std::string &path) const
{
    RV_SPAN("cache.save");
    // Translate the instance half of each key from the bank-local id
    // to the program's content fingerprint before writing, so the
    // file is valid for any future run that registers the same
    // programs -- in any order, with any extras. The mapped warm
    // file's records (programs this run may never have registered)
    // are written back rather than dropped.
    EvalCache on_disk(1);
    for (const auto &[key, value] : cache.entries()) {
        on_disk.insert(
            EvalKey{key.model, fingerprint(bank.program(key.instance))},
            value);
    }
    if (warm) {
        for (size_t i = 0; i < warm->size(); ++i) {
            const EvalFileRecord &record = warm->record(i);
            on_disk.insert(EvalKey{record.model, record.instance},
                           EvalValue{record.cost, record.simCpi});
        }
    }
    return on_disk.save(path, persistDigest());
}

size_t
EvalEngine::mapWarmFile(const std::string &path)
{
    RV_SPAN("cache.map");
    std::string error;
    std::shared_ptr<const MappedEvalFile> mapped =
        MappedEvalFile::open(path, persistDigest(), &error);
    if (!mapped) {
        warn("engine: warm file not mapped: %s", error.c_str());
        return 0;
    }
    warm = std::move(mapped);
    return warm->size();
}

EngineStats
EvalEngine::stats() const
{
    EngineStats out;
    out.bank = bank.stats();
    out.cache = cache.stats();
    out.requests = requests.load();
    out.evaluations = evaluations.load();
    out.warmFileHits = warmFileHitCount.load();
    out.batches = batches.load();
    out.batchSubmissions = batchSubmissions.load();
    out.batchDeduplicated = batchDeduplicated.load();
    out.instsSimulated = instsSimulatedCount.load();
    out.evalSeconds = static_cast<double>(evalNanos.load()) / 1e9;
    return out;
}

// -------------------------------------------------------- BatchEvaluator

BatchEvaluator::BatchEvaluator(EvalEngine &engine_) : engine(engine_) {}

BatchEvaluator::Ticket
BatchEvaluator::submit(const tuner::Configuration &config, size_t instance)
{
    RV_ASSERT(!engine.isHeldOut(instance),
              "engine: racing experiment against held-out instance %zu "
              "(hold-out workloads are report-only)", instance);
    return submitModel(engine.materialize(config), instance);
}

BatchEvaluator::Ticket
BatchEvaluator::submitModel(const core::CoreParams &model,
                            size_t instance)
{
    return submitModel(engine.fam, model, instance);
}

BatchEvaluator::Ticket
BatchEvaluator::submitModel(core::ModelFamily family,
                            const core::CoreParams &model,
                            size_t instance)
{
    ++engine.requests;
    ++engine.batchSubmissions;
    EvalKey key = engine.modelKey(family, model, instance);
    uint64_t mixed = mixedKey(key);
    auto it = slotIndex.find(mixed);
    if (it != slotIndex.end()) {
        ++engine.batchDeduplicated;
        tickets.push_back(it->second);
        return tickets.size() - 1;
    }

    Slot slot;
    slot.key = key;
    slot.instance = instance;
    slot.family = family;
    if (engine.cache.lookup(key, slot.value))
        slot.served = true;
    else
        slot.model = model;
    slotIndex.emplace(mixed, slots.size());
    slots.push_back(std::move(slot));
    collected = false;
    tickets.push_back(slots.size() - 1);
    return tickets.size() - 1;
}

void
BatchEvaluator::runSolo(Slot &slot)
{
    slot.value =
        engine.computeFresh(slot.family, slot.model, slot.instance);
    engine.cache.insert(slot.key, slot.value);
    slot.served = true;
}

void
BatchEvaluator::collect()
{
    if (collected)
        return;
    std::vector<size_t> fresh;
    for (size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].served)
            fresh.push_back(s);
    }
    if (!fresh.empty()) {
        RV_SPAN("engine.batch", static_cast<uint64_t>(fresh.size()));
        // One wall-clock charge for the whole parallel wave, so
        // experimentsPerSecond() reports real throughput rather than
        // summed per-thread time.
        auto start = std::chrono::steady_clock::now();
        // One pool item per fresh slot: a racing step's independent
        // evaluations spread over every worker.
        engine.pool.parallelFor(fresh.size(), [&](size_t k) {
            runSolo(slots[fresh[k]]);
        });
        engine.chargeWall(start);
    }
    ++engine.batches;
    collected = true;
}

double
BatchEvaluator::cost(Ticket ticket) const
{
    RV_ASSERT(ticket < tickets.size(), "batch: bad ticket %zu", ticket);
    const Slot &slot = slots[tickets[ticket]];
    RV_ASSERT(slot.served, "batch: result read before collect()");
    return slot.value.cost;
}

double
BatchEvaluator::simCpi(Ticket ticket) const
{
    RV_ASSERT(ticket < tickets.size(), "batch: bad ticket %zu", ticket);
    const Slot &slot = slots[tickets[ticket]];
    RV_ASSERT(slot.served, "batch: result read before collect()");
    return slot.value.simCpi;
}

} // namespace raceval::engine
