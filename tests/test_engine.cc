/** @file Evaluation-engine tests: TraceBank, EvalCache, batching,
 *  and racer equivalence with the engine swapped in. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

#include "common/log.hh"
#include "core/inorder.hh"
#include "engine/engine.hh"
#include "tuner/race.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"

using namespace raceval;
using namespace raceval::engine;

namespace
{

isa::Program
smallProgram(const char *name, uint64_t insts = 20000)
{
    const ubench::UbenchInfo *info = ubench::find(name);
    EXPECT_NE(info, nullptr);
    return info->builder(insts, true);
}

/** Drain a source and require stream identity with live execution. */
void
expectStreamIdentical(vm::TraceSource &replay, const isa::Program &prog)
{
    vm::FunctionalCore live(prog);
    vm::DynInst a, b;
    uint64_t count = 0;
    while (live.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "replay ended early at " << count;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.inst.op, b.inst.op);
        ASSERT_EQ(a.memAddr, b.memAddr);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.nextPc, b.nextPc);
        ++count;
    }
    EXPECT_FALSE(replay.next(b));
    EXPECT_GT(count, 0u);
}

// Property: a packed replay reproduces the live stream exactly, on
// every event mix (memory deltas, branch targets, FP, strided stores).
class TraceBankReplay : public ::testing::TestWithParam<const char *> {};

TEST_P(TraceBankReplay, IdenticalToLiveExecution)
{
    TraceBank bank;
    isa::Program prog = smallProgram(GetParam());
    size_t id = bank.add(prog);
    auto replay = bank.open(id);
    expectStreamIdentical(*replay, prog);

    // A second handle replays the same recording, not a new one.
    auto again = bank.open(id);
    expectStreamIdentical(*again, prog);
    TraceBankStats stats = bank.stats();
    EXPECT_EQ(stats.recordings, 1u);
    EXPECT_EQ(stats.replays, 2u);
    EXPECT_GT(stats.residentBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ubenches, TraceBankReplay,
                         ::testing::Values("MC", "CCh", "CS1", "DP1d",
                                           "MM", "STc", "CRf"));

TEST(TraceBank, LargeTraceReplayIdenticalToLiveExecution)
{
    // Memory deltas and branch targets accumulate over the whole
    // stream, so any drift over >= 1 Mi instructions shows.
    TraceBank bank;
    isa::Program prog = smallProgram("MC", 1200000);
    size_t id = bank.add(prog);
    ASSERT_GE(bank.instCount(id), uint64_t{1} << 20);
    expectStreamIdentical(*bank.open(id), prog);
}

TEST(TraceBank, ResetRewinds)
{
    TraceBank bank;
    size_t id = bank.add(smallProgram("CCe", 5000));
    auto replay = bank.open(id);
    vm::DynInst d;
    uint64_t first = 0;
    while (replay->next(d))
        ++first;
    replay->reset();
    uint64_t second = 0;
    while (replay->next(d))
        ++second;
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, bank.instCount(id));
}

TEST(TraceBank, DeduplicatesIdenticalPrograms)
{
    TraceBank bank;
    isa::Program prog = smallProgram("EI", 5000);
    size_t a = bank.add(prog);
    size_t b = bank.add(prog);
    EXPECT_EQ(a, b);
    EXPECT_EQ(bank.size(), 1u);
    // A different program gets its own instance.
    size_t c = bank.add(smallProgram("MM", 5000));
    EXPECT_NE(a, c);
    EXPECT_EQ(bank.size(), 2u);
}

TEST(TraceBank, InstCountMatchesLiveExecution)
{
    TraceBank bank;
    isa::Program prog = smallProgram("DP1d", 8000);
    vm::FunctionalCore live(prog);
    uint64_t live_count = live.run();
    EXPECT_EQ(bank.instCount(bank.add(prog)), live_count);
}

TEST(EvalCache, HitMissAndContains)
{
    EvalCache cache(4);
    EvalKey key{42, 7};
    EvalValue out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_FALSE(cache.contains(key));
    cache.insert(key, EvalValue{1.5, 2.5});
    EXPECT_TRUE(cache.contains(key));
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_DOUBLE_EQ(out.cost, 1.5);
    EXPECT_DOUBLE_EQ(out.simCpi, 2.5);

    EvalCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(EvalCache, FirstWriteWins)
{
    EvalCache cache(1);
    EvalKey key{1, 1};
    cache.insert(key, EvalValue{1.0, 1.0});
    cache.insert(key, EvalValue{9.0, 9.0});
    EvalValue out;
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_DOUBLE_EQ(out.cost, 1.0);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(EvalCache, PersistenceRoundTrip)
{
    std::string path = ::testing::TempDir() + "/evalcache.bin";
    EvalCache cache(4);
    for (uint64_t i = 0; i < 100; ++i)
        cache.insert(EvalKey{i * 31, i}, EvalValue{0.5 * i, 2.0 * i});
    EXPECT_EQ(cache.save(path), 100u);

    // Every saved entry maps back with its exact value.
    auto warm = MappedEvalFile::open(path);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->size(), 100u);
    for (const auto &[key, value] : cache.entries()) {
        EvalValue out;
        ASSERT_TRUE(warm->lookup(key, out));
        EXPECT_EQ(out.cost, value.cost);
        EXPECT_EQ(out.simCpi, value.simCpi);
    }

    // A missing file does not map.
    std::string error;
    EXPECT_EQ(MappedEvalFile::open(
                  ::testing::TempDir() + "/does-not-exist.bin", 0,
                  &error),
              nullptr);
    EXPECT_FALSE(error.empty());

    // A digest mismatch (cache saved by a differently-shaped engine)
    // must refuse the file rather than serve aliased results.
    EvalCache stamped(2);
    stamped.insert(EvalKey{1, 2}, EvalValue{3.0, 4.0});
    stamped.save(path, /*digest=*/0xa53);
    EXPECT_EQ(MappedEvalFile::open(path, /*digest=*/0xa72), nullptr);
    auto matched = MappedEvalFile::open(path, 0xa53);
    ASSERT_NE(matched, nullptr);
    EXPECT_EQ(matched->size(), 1u);
    std::remove(path.c_str());
}

TEST(Fingerprint, ModelContentSensitivity)
{
    core::CoreParams a = core::publicInfoA53();
    core::CoreParams b = a;
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    b.mem.l1d.latency += 1;
    EXPECT_NE(fingerprint(a), fingerprint(b));
    // The display name is cosmetic and must not change the key.
    core::CoreParams c = a;
    c.name = "renamed";
    EXPECT_EQ(fingerprint(a), fingerprint(c));
}

TEST(Engine, RepeatEvaluationsAreCacheHits)
{
    EvalEngine engine(core::ModelFamily::InOrder);
    size_t instance = engine.addInstance(smallProgram("STc", 6000));
    core::CoreParams model = core::publicInfoA53();

    EvalValue first = engine.evaluateModel(model, instance);
    EvalValue second = engine.evaluateModel(model, instance);
    EXPECT_DOUBLE_EQ(first.cost, second.cost);
    EXPECT_DOUBLE_EQ(first.simCpi, second.simCpi);
    EXPECT_GT(first.simCpi, 0.0);

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.evaluations, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
    EXPECT_FALSE(stats.summary().empty());
    EXPECT_NE(stats.json().find("\"cache_hits\": 1"), std::string::npos);
}

TEST(Engine, BatchDeduplicatesIdenticalKeys)
{
    EvalEngine engine(core::ModelFamily::InOrder);
    size_t i0 = engine.addInstance(smallProgram("EI", 6000));
    size_t i1 = engine.addInstance(smallProgram("MM", 6000));

    std::atomic<uint64_t> computed{0};
    engine.setCostFn(
        [&computed](const core::CoreStats &stats, size_t) {
            ++computed;
            return stats.cpi();
        },
        /*cost_tag=*/1);

    core::CoreParams model = core::publicInfoA53();
    BatchEvaluator batch(engine);
    auto t0 = batch.submitModel(model, i0);
    auto t1 = batch.submitModel(model, i0); // duplicate
    auto t2 = batch.submitModel(model, i0); // duplicate
    auto t3 = batch.submitModel(model, i1);
    EXPECT_EQ(batch.submitted(), 4u);
    EXPECT_EQ(batch.uniqueSlots(), 2u);
    batch.collect();

    EXPECT_EQ(computed.load(), 2u);
    EXPECT_DOUBLE_EQ(batch.cost(t0), batch.cost(t1));
    EXPECT_DOUBLE_EQ(batch.cost(t0), batch.cost(t2));
    EXPECT_GT(batch.cost(t3), 0.0);

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.batchSubmissions, 4u);
    EXPECT_EQ(stats.batchDeduplicated, 2u);
    EXPECT_EQ(stats.evaluations, 2u);

    // A second batch over the same keys is served fully from cache.
    BatchEvaluator warm(engine);
    warm.submitModel(model, i0);
    warm.submitModel(model, i1);
    warm.collect();
    EXPECT_EQ(engine.stats().evaluations, 2u);
}

// Each fresh evaluation is one bank replay, whether it runs through
// evaluateModel or a batch; a cache hit replays nothing.
TEST(Engine, ReplayCountsOncePerFreshEval)
{
    EvalEngine engine(core::ModelFamily::InOrder);
    isa::Program prog = smallProgram("MC", 6000);
    size_t id = engine.addInstance(prog);

    const unsigned n = 5;
    std::vector<core::CoreParams> models(n, core::publicInfoA53());
    for (unsigned i = 0; i < n; ++i)
        models[i].mispredictPenalty = 4 + i;

    engine.evaluateModel(models[0], id);
    BatchEvaluator batch(engine);
    std::vector<BatchEvaluator::Ticket> tickets;
    for (unsigned i = 1; i < n; ++i)
        tickets.push_back(batch.submitModel(models[i], id));
    batch.collect();

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.evaluations, n);
    EXPECT_EQ(stats.bank.replays, n);
    EXPECT_EQ(stats.bank.recordings, 1u);
    EXPECT_EQ(stats.bank.spilledTraces, 0u);
    EXPECT_EQ(stats.bank.encodedBytes, 0u);

    engine.evaluateModel(models[0], id);
    EXPECT_EQ(engine.stats().bank.replays, n);

    // Batched values match a live run of the same model.
    for (unsigned i = 1; i < n; ++i) {
        vm::FunctionalCore live(prog);
        EXPECT_EQ(batch.simCpi(tickets[i - 1]),
                  core::InOrderCore(models[i]).run(live).cpi())
            << "model " << i;
    }
}

TEST(Engine, WarmStartSurvivesRegistrationOrder)
{
    isa::Program prog_a = smallProgram("EI", 5000);
    isa::Program prog_b = smallProgram("MM", 5000);
    std::string path = ::testing::TempDir() + "/engine-warm.bin";
    core::CoreParams model = core::publicInfoA53();

    EvalValue val_a, val_b;
    {
        EvalEngine eng(core::ModelFamily::InOrder);
        size_t ia = eng.addInstance(prog_a);
        size_t ib = eng.addInstance(prog_b);
        val_a = eng.evaluateModel(model, ia);
        val_b = eng.evaluateModel(model, ib);
        EXPECT_EQ(eng.saveCache(path), 2u);
    }

    // New engine, reversed registration order, one program registered
    // only after the mapping: persisted keys are program-content
    // based, so everything must still be served from the warm file.
    EvalEngine warm(core::ModelFamily::InOrder);
    size_t ib = warm.addInstance(prog_b);
    EXPECT_EQ(warm.mapWarmFile(path), 2u);
    EXPECT_DOUBLE_EQ(warm.evaluateModel(model, ib).simCpi,
                     val_b.simCpi);
    size_t ia = warm.addInstance(prog_a); // registered after mapping
    EXPECT_DOUBLE_EQ(warm.evaluateModel(model, ia).simCpi,
                     val_a.simCpi);
    EXPECT_EQ(warm.stats().evaluations, 0u);
    EXPECT_EQ(warm.stats().bank.recordings, 0u);

    // Keys are family-salted, so an engine of another model family
    // accepts the same file -- but its own evaluations are all fresh
    // (the in-order entries never alias into the OoO family).
    EvalEngine ooo(core::ModelFamily::Ooo);
    size_t oa = ooo.addInstance(prog_a);
    EXPECT_EQ(ooo.mapWarmFile(path), 2u);
    // The mapped entries never alias into the OoO family: this
    // evaluation must run fresh (both families may legitimately
    // produce the same CPI on width-saturated code, so the count --
    // not the value -- is the aliasing proof).
    ooo.evaluateModel(model, oa);
    EXPECT_EQ(ooo.stats().evaluations, 1u);

    // Saving over its own mapping writes every mapped record back --
    // prog_b's too, which this engine never registered -- next to the
    // new entry.
    EXPECT_EQ(ooo.saveCache(path), 3u);
    std::remove(path.c_str());
}

TEST(Engine, FamiliesNeverAliasInSharedWarmCache)
{
    // Acceptance gate of the timing-model registry: the SAME CoreParams
    // evaluated under in-order, OoO and interval over one shared
    // engine/cache produces three distinct entries, and a warm restart
    // of any family hits only its own.
    isa::Program prog = smallProgram("MM", 5000);
    core::CoreParams model = core::publicInfoA53();
    std::string path = ::testing::TempDir() + "/engine-families.bin";

    const core::ModelFamily families[] = {core::ModelFamily::InOrder,
                                          core::ModelFamily::Ooo,
                                          core::ModelFamily::Interval};
    double cpi[3] = {};
    {
        EvalEngine eng(core::ModelFamily::InOrder);
        size_t id = eng.addInstance(prog);
        for (size_t f = 0; f < 3; ++f)
            cpi[f] = eng.evaluateModel(families[f], model, id).simCpi;
        // Three fresh evaluations, three cache entries: no collisions.
        EXPECT_EQ(eng.stats().evaluations, 3u);
        EXPECT_EQ(eng.stats().cache.entries, 3u);
        EXPECT_NE(cpi[0], cpi[1]);
        EXPECT_NE(cpi[0], cpi[2]);
        EXPECT_NE(cpi[1], cpi[2]);
        // Re-evaluating any family is a pure hit.
        for (size_t f = 0; f < 3; ++f) {
            EXPECT_EQ(eng.evaluateModel(families[f], model, id).simCpi,
                      cpi[f]);
        }
        EXPECT_EQ(eng.stats().evaluations, 3u);
        EXPECT_EQ(eng.saveCache(path), 3u);
    }

    // One warm-start file serves engines of every default family, and
    // each family sees exactly its own value.
    for (size_t f = 0; f < 3; ++f) {
        EvalEngine warm(families[f]);
        size_t id = warm.addInstance(prog);
        EXPECT_EQ(warm.mapWarmFile(path), 3u);
        EXPECT_DOUBLE_EQ(warm.evaluateModel(model, id).simCpi, cpi[f]);
        EXPECT_EQ(warm.stats().evaluations, 0u);
    }
    std::remove(path.c_str());
}

TEST(Engine, CostTagSeparatesMetrics)
{
    EvalEngine engine(core::ModelFamily::InOrder);
    size_t instance = engine.addInstance(smallProgram("CCe", 5000));
    core::CoreParams model = core::publicInfoA53();

    engine.setCostFn(
        [](const core::CoreStats &stats, size_t) { return stats.cpi(); },
        1);
    double cpi_cost = engine.evaluateModel(model, instance).cost;

    engine.setCostFn(
        [](const core::CoreStats &, size_t) { return 123.0; }, 2);
    double other_cost = engine.evaluateModel(model, instance).cost;
    EXPECT_DOUBLE_EQ(other_cost, 123.0);
    EXPECT_NE(cpi_cost, other_cost);
}

/**
 * The acceptance gate of the engine rewire: racing through the engine
 * (trace replay + shared cache) must produce bit-identical results to
 * racing through live functional execution at the same seed.
 */
TEST(Engine, RacerBitIdenticalWithEngineSwappedIn)
{
    tuner::ParameterSpace space;
    space.addOrdinal("mispredict_penalty", {4, 8, 12, 16});
    space.addOrdinal("l1d_latency", {2, 3, 4});
    space.addFlag("forwarding");
    space.addCategorical("bp", {"bimodal", "gshare"});

    auto materialize = [&space](const tuner::Configuration &config) {
        core::CoreParams model = core::publicInfoA53();
        model.mispredictPenalty = static_cast<unsigned>(
            space.ordinalValue(config, "mispredict_penalty"));
        model.mem.l1d.latency = static_cast<unsigned>(
            space.ordinalValue(config, "l1d_latency"));
        model.forwarding = space.flagValue(config, "forwarding");
        model.bp.kind = space.categoricalChoice(config, "bp") == 0
            ? branch::PredictorKind::Bimodal
            : branch::PredictorKind::GShare;
        return model;
    };

    std::vector<isa::Program> programs;
    for (const char *name : {"CCh", "EI", "MM", "CS1", "STc", "DP1d"})
        programs.push_back(smallProgram(name, 6000));

    tuner::RacerOptions opts;
    opts.maxExperiments = 250;
    opts.seed = 77;

    // Path A: the pre-engine way -- live functional execution per
    // evaluation, memoized by the SimpleCostEvaluator.
    auto live_cost = [&](const tuner::Configuration &config,
                         size_t instance) {
        core::CoreParams model = materialize(config);
        vm::FunctionalCore source(programs[instance]);
        core::InOrderCore sim(model);
        return sim.run(source).cpi();
    };
    tuner::SimpleCostEvaluator live_eval(live_cost, 2);
    tuner::IteratedRacer live_racer(space, live_eval, programs.size(),
                                    opts);
    tuner::RaceResult live = live_racer.run();

    // Path B: the engine -- record-once trace replay + EvalCache.
    EvalEngine engine(core::ModelFamily::InOrder);
    for (const isa::Program &prog : programs)
        engine.addInstance(prog);
    engine.setModelFn(materialize);
    // Default cost (simulated CPI) matches the live lambda above.
    tuner::IteratedRacer engine_racer(space, engine, programs.size(),
                                      opts);
    tuner::RaceResult replayed = engine_racer.run();

    EXPECT_EQ(live.best, replayed.best);
    EXPECT_EQ(live.bestMeanCost, replayed.bestMeanCost);
    ASSERT_EQ(live.bestCosts.size(), replayed.bestCosts.size());
    for (size_t i = 0; i < live.bestCosts.size(); ++i)
        EXPECT_EQ(live.bestCosts[i], replayed.bestCosts[i]);
    EXPECT_EQ(live.experimentsUsed, replayed.experimentsUsed);
    EXPECT_EQ(live.iterations, replayed.iterations);
    ASSERT_EQ(live.elites.size(), replayed.elites.size());
    for (size_t e = 0; e < live.elites.size(); ++e) {
        EXPECT_EQ(live.elites[e].first, replayed.elites[e].first);
        EXPECT_EQ(live.elites[e].second, replayed.elites[e].second);
    }

    // And the engine must actually have been exercised as an engine.
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.bank.recordings, programs.size());
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_LT(stats.evaluations, stats.requests);

    // Re-running the identical race over the now-warm cache must not
    // change the trajectory (budget accounting is race-local), must
    // not simulate anything new, and must reproduce the result.
    uint64_t evals_before = stats.evaluations;
    tuner::IteratedRacer warm_racer(space, engine, programs.size(),
                                    opts);
    tuner::RaceResult warm = warm_racer.run();
    EXPECT_EQ(warm.best, replayed.best);
    EXPECT_EQ(warm.bestMeanCost, replayed.bestMeanCost);
    EXPECT_EQ(warm.experimentsUsed, replayed.experimentsUsed);
    EXPECT_EQ(engine.stats().evaluations, evals_before);
}

TEST(Engine, EveryStrategyBitIdenticalLiveVsEngineColdVsWarm)
{
    // The racer bit-identity contract, extended to the whole
    // SearchStrategyRegistry: for EVERY registered strategy, live
    // per-call execution, a cold engine and the same engine re-used
    // warm must produce bit-identical RaceResults.
    tuner::ParameterSpace space;
    space.addOrdinal("mispredict_penalty", {4, 8, 12, 16});
    space.addOrdinal("l1d_latency", {2, 3, 4});
    space.addFlag("forwarding");

    auto materialize = [&space](const tuner::Configuration &config) {
        core::CoreParams model = core::publicInfoA53();
        model.mispredictPenalty = static_cast<unsigned>(
            space.ordinalValue(config, "mispredict_penalty"));
        model.mem.l1d.latency = static_cast<unsigned>(
            space.ordinalValue(config, "l1d_latency"));
        model.forwarding = space.flagValue(config, "forwarding");
        return model;
    };

    std::vector<isa::Program> programs;
    for (const char *name : {"CCh", "EI", "MM", "STc"})
        programs.push_back(smallProgram(name, 6000));

    auto live_cost = [&](const tuner::Configuration &config,
                         size_t instance) {
        core::CoreParams model = materialize(config);
        vm::FunctionalCore source(programs[instance]);
        core::InOrderCore sim(model);
        return sim.run(source).cpi();
    };

    auto expect_same = [](const tuner::RaceResult &a,
                          const tuner::RaceResult &b,
                          const char *what) {
        EXPECT_EQ(a.best, b.best) << what;
        EXPECT_EQ(a.bestMeanCost, b.bestMeanCost) << what;
        EXPECT_EQ(a.bestCosts, b.bestCosts) << what;
        EXPECT_EQ(a.experimentsUsed, b.experimentsUsed) << what;
        EXPECT_EQ(a.iterations, b.iterations) << what;
        ASSERT_EQ(a.elites.size(), b.elites.size()) << what;
        for (size_t e = 0; e < a.elites.size(); ++e) {
            EXPECT_EQ(a.elites[e].first, b.elites[e].first) << what;
            EXPECT_EQ(a.elites[e].second, b.elites[e].second) << what;
        }
    };

    tuner::RacerOptions opts;
    opts.maxExperiments = 120;
    opts.seed = 31;

    for (const tuner::SearchStrategyInfo &info :
         tuner::SearchStrategyRegistry::instance().all()) {
        tuner::SimpleCostEvaluator live_eval(live_cost, 1);
        auto live_strategy = info.make(space, live_eval,
                                       programs.size(), opts);
        tuner::RaceResult live = live_strategy->run();
        EXPECT_LE(live.experimentsUsed, opts.maxExperiments)
            << info.name;

        EvalEngine engine(core::ModelFamily::InOrder);
        for (const isa::Program &prog : programs)
            engine.addInstance(prog);
        engine.setModelFn(materialize);
        auto cold_strategy = info.make(space, engine, programs.size(),
                                       opts);
        tuner::RaceResult cold = cold_strategy->run();
        expect_same(live, cold,
                    (std::string(info.name) + " live-vs-cold").c_str());

        uint64_t evals_before = engine.stats().evaluations;
        auto warm_strategy = info.make(space, engine, programs.size(),
                                       opts);
        tuner::RaceResult warm = warm_strategy->run();
        expect_same(cold, warm,
                    (std::string(info.name) + " cold-vs-warm").c_str());
        EXPECT_EQ(engine.stats().evaluations, evals_before)
            << info.name << ": warm rerun simulated something new";
    }
}

} // namespace
