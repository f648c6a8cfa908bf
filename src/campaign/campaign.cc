#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "engine/fingerprint.hh"
#include "obs/trace.hh"
#include "scenario/scenario.hh"

namespace raceval::campaign
{

namespace
{

/**
 * The racer-facing view of one task: maps the racer's task-local
 * instance indices onto the shared engine's instance ids, materializes
 * configurations through the task's own model fn, and scores through
 * the engine's cost metric. Every racing step stays one deduplicated
 * engine batch, so concurrent tasks interleave whole batches at the
 * shared ThreadPool.
 */
class SubsetEvaluator : public tuner::CostEvaluator
{
  public:
    SubsetEvaluator(engine::EvalEngine &engine, const CampaignTask &task)
        : engine(engine), task(task)
    {
    }

    std::vector<double>
    evaluateMany(const std::vector<tuner::EvalPair> &pairs) override
    {
        core::ModelFamily family =
            task.family.value_or(engine.modelFamily());
        engine::BatchEvaluator batch(engine);
        std::vector<engine::BatchEvaluator::Ticket> tickets;
        tickets.reserve(pairs.size());
        for (const auto &[config, local] : pairs) {
            tickets.push_back(batch.submitModel(
                family, task.modelFn(config), task.instances[local]));
        }
        batch.collect();
        std::vector<double> costs;
        costs.reserve(pairs.size());
        for (engine::BatchEvaluator::Ticket ticket : tickets)
            costs.push_back(batch.cost(ticket));
        return costs;
    }

  private:
    engine::EvalEngine &engine;
    const CampaignTask &task;
};

/** Replace the entry with @p entry's name, or append it. */
void
upsertEntry(std::vector<CheckpointEntry> &entries, CheckpointEntry entry)
{
    for (CheckpointEntry &existing : entries) {
        if (existing.name == entry.name) {
            existing = std::move(entry);
            return;
        }
    }
    entries.push_back(std::move(entry));
}

} // namespace

uint64_t
taskFingerprint(const engine::EvalEngine &engine,
                const CampaignTask &task)
{
    engine::Fingerprinter fp;
    fp.str(task.name);
    // The task's timing-model family: CoreParams content carries no
    // family distinction (the same struct configures every model), so
    // without this a checkpoint written against one family would
    // restore bit-wrong against another (same guard as the EvalCache's
    // family-salted keys).
    fp.mix(core::modelFamilySalt(
        task.family.value_or(engine.modelFamily())));
    // The search strategy, by its checkpoint salt -- a task switched
    // to another strategy must not restore the old trajectory.
    // Deliberate asymmetry: the default strategy (irace, explicit or
    // via "") mixes NOTHING, so checkpoints written before strategies
    // existed stay valid for exactly the tasks whose definition is
    // actually unchanged.
    std::string strategy_name = task.strategy.empty()
        ? tuner::defaultSearchStrategy : task.strategy;
    if (strategy_name != tuner::defaultSearchStrategy)
        fp.mix(tuner::searchStrategySalt(strategy_name));
    // The target board, by its fingerprint salt, under the same
    // asymmetry: the pre-scenario boards carry salt zero and mix
    // nothing, so checkpoints written before targets existed restore
    // for exactly the boards that were implicit back then.
    if (!task.target.empty()) {
        uint64_t target_salt =
            scenario::targetOrDie(task.target).fingerprintSalt;
        if (target_salt != 0)
            fp.mix(target_salt);
    }

    const tuner::RacerOptions &r = task.racer;
    fp.mix(r.maxExperiments)
        .mix(uint64_t{r.instancesBeforeFirstTest})
        .mix(r.alpha)
        .mix(uint64_t{r.eliteCount})
        .mix(uint64_t{r.candidatesPerIteration})
        .mix(r.seed);

    // Workloads by program content, not bank id, so a resume survives
    // instance registration order changing between runs.
    fp.mix(uint64_t{task.instances.size()});
    for (size_t id : task.instances)
        fp.mix(engine::fingerprint(engine.traceBank().program(id)));

    // The space shape: arity plus each parameter's declaration.
    fp.mix(uint64_t{task.space->size()});
    for (size_t i = 0; i < task.space->size(); ++i) {
        const tuner::Parameter &param = task.space->at(i);
        fp.str(param.name)
            .mix(uint64_t{static_cast<uint8_t>(param.kind)})
            .mix(uint64_t{param.cardinality()});
        for (int64_t level : param.levels)
            fp.mix(static_cast<uint64_t>(level));
        for (const std::string &label : param.labels)
            fp.str(label);
    }

    // The model fn is opaque; probe it at the two corners of the space
    // so a changed target preset (different base model) or remapped
    // parameter shows up in the fingerprint.
    tuner::Configuration lo(task.space->size());
    tuner::Configuration hi(task.space->size());
    for (size_t i = 0; i < task.space->size(); ++i) {
        hi[i] = static_cast<uint16_t>(
            task.space->at(i).cardinality() - 1);
    }
    fp.mix(engine::fingerprint(task.modelFn(lo)))
        .mix(engine::fingerprint(task.modelFn(hi)));

    // The cost metric by its cache-key tag (the engine's documented
    // metric identity): a changed objective must invalidate checkpoint
    // entries.
    fp.mix(engine.costTag());
    fp.mix(uint64_t{task.initialCandidates.size()});
    for (const tuner::Configuration &config : task.initialCandidates)
        fp.mix(engine::fingerprint(config));
    return fp.value();
}

// --------------------------------------------------------- CampaignStats

std::string
CampaignStats::summary() const
{
    std::string out = strprintf(
        "campaign: %u tasks (%u raced, %u restored), %llu experiments "
        "in %.2f s = %.0f experiments/s aggregate\n",
        tasksTotal, tasksRaced, tasksFromCheckpoint,
        static_cast<unsigned long long>(experiments), wallSeconds,
        experimentsPerSecond());
    out += engine.summary();
    return out;
}

std::string
CampaignStats::json() const
{
    JsonWriter w;
    w.beginObject()
        .field("tasks_total", tasksTotal)
        .field("tasks_raced", tasksRaced)
        .field("tasks_from_checkpoint", tasksFromCheckpoint)
        .field("experiments", experiments)
        .field("wall_seconds", wallSeconds)
        .field("experiments_per_s", experimentsPerSecond())
        .rawField("engine", engine.json())
        .endObject();
    return w.str();
}

// -------------------------------------------------------- CampaignRunner

CampaignRunner::CampaignRunner(engine::EvalEngine &engine,
                               CampaignOptions options)
    : engine(engine), opts(options)
{
}

void
CampaignRunner::addTask(CampaignTask task)
{
    RV_ASSERT(!ran, "campaign: addTask() after run()");
    RV_ASSERT(!task.name.empty(), "campaign: task without a name");
    for (const CampaignTask &existing : tasks) {
        RV_ASSERT(existing.name != task.name,
                  "campaign: duplicate task name '%s'",
                  task.name.c_str());
    }
    RV_ASSERT(task.space != nullptr && task.space->size() > 0,
              "campaign task '%s': no parameter space",
              task.name.c_str());
    RV_ASSERT(task.modelFn != nullptr,
              "campaign task '%s': no model fn", task.name.c_str());
    RV_ASSERT(!task.instances.empty(),
              "campaign task '%s': empty workload subset",
              task.name.c_str());
    for (size_t id : task.instances) {
        RV_ASSERT(id < engine.numInstances(),
                  "campaign task '%s': instance %zu not registered",
                  task.name.c_str(), id);
    }
    RV_ASSERT(task.strategy.empty()
                  || tuner::SearchStrategyRegistry::instance().find(
                         task.strategy) != nullptr,
              "campaign task '%s': unknown search strategy '%s'",
              task.name.c_str(), task.strategy.c_str());
    RV_ASSERT(task.target.empty()
                  || scenario::findTarget(task.target) != nullptr,
              "campaign task '%s': unknown target board '%s'",
              task.name.c_str(), task.target.c_str());
    RV_ASSERT(task.racer.maxExperiments > 0,
              "campaign task '%s': zero experiment budget",
              task.name.c_str());
    for (const tuner::Configuration &config : task.initialCandidates) {
        RV_ASSERT(config.size() == task.space->size(),
                  "campaign task '%s': initial candidate arity",
                  task.name.c_str());
    }
    tasks.push_back(std::move(task));
}

void
CampaignRunner::runTask(size_t index, uint64_t fingerprint,
                        std::vector<TaskOutcome> &outcomes,
                        std::vector<CheckpointEntry> &completed)
{
    const CampaignTask &task = tasks[index];
    RV_SPAN("campaign.task", static_cast<uint64_t>(index));
    SubsetEvaluator evaluator(engine, task);
    std::unique_ptr<tuner::SearchStrategy> strategy =
        tuner::makeSearchStrategy(
            task.strategy.empty() ? tuner::defaultSearchStrategy
                                  : task.strategy,
            *task.space, evaluator, task.instances.size(), task.racer);
    for (const tuner::Configuration &config : task.initialCandidates)
        strategy->addInitialCandidate(config);

    auto start = std::chrono::steady_clock::now();
    tuner::RaceResult result = strategy->run();
    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    std::lock_guard<std::mutex> lock(mutex);
    outcomes[index] =
        TaskOutcome{task.name, std::move(result), wall, false};
    if (!opts.checkpointPath.empty()) {
        RV_SPAN("campaign.checkpoint");
        upsertEntry(completed,
                    CheckpointEntry{task.name, fingerprint,
                                    outcomes[index].result});
        saveCheckpoint(opts.checkpointPath, completed);
    }
}

CampaignResult
CampaignRunner::run()
{
    RV_ASSERT(!ran, "campaign: run() may only be called once");
    RV_ASSERT(!tasks.empty(), "campaign: no tasks");
    ran = true;
    auto start = std::chrono::steady_clock::now();

    CampaignResult out;
    out.tasks.resize(tasks.size());

    // Restore completed tasks from the checkpoint. Entries that match
    // no current task (or whose task definition changed, per the
    // fingerprint) are kept in `completed` untouched, so resuming a
    // narrower campaign never destroys another campaign's progress.
    std::vector<CheckpointEntry> completed;
    if (!opts.checkpointPath.empty())
        completed = loadCheckpoint(opts.checkpointPath);
    std::vector<uint64_t> fingerprints(tasks.size());
    std::vector<size_t> pending;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const CheckpointEntry *hit = nullptr;
        fingerprints[i] = taskFingerprint(engine, tasks[i]);
        for (const CheckpointEntry &entry : completed) {
            if (entry.name == tasks[i].name
                && entry.fingerprint == fingerprints[i]) {
                hit = &entry;
                break;
            }
        }
        if (hit) {
            out.tasks[i] =
                TaskOutcome{tasks[i].name, hit->result, 0.0, true};
        } else {
            pending.push_back(i);
        }
    }

    // Racer threads pull pending tasks off a shared counter; each
    // racing step is one whole engine batch, so concurrent tasks
    // interleave batches at the shared ThreadPool without ever
    // splitting one. Per-task trajectories cannot observe the
    // interleaving (deterministic evaluator, race-local budget).
    size_t num_threads = opts.concurrency == 0
        ? pending.size()
        : std::min<size_t>(opts.concurrency, pending.size());
    if (num_threads <= 1) {
        for (size_t index : pending)
            runTask(index, fingerprints[index], out.tasks, completed);
    } else {
        std::atomic<size_t> next{0};
        std::vector<std::thread> racers;
        racers.reserve(num_threads);
        for (size_t t = 0; t < num_threads; ++t) {
            racers.emplace_back([&] {
                for (;;) {
                    size_t k = next.fetch_add(1);
                    if (k >= pending.size())
                        return;
                    runTask(pending[k], fingerprints[pending[k]],
                            out.tasks, completed);
                }
            });
        }
        for (std::thread &racer : racers)
            racer.join();
    }

    out.stats.tasksTotal = static_cast<unsigned>(tasks.size());
    out.stats.tasksRaced = static_cast<unsigned>(pending.size());
    out.stats.tasksFromCheckpoint =
        static_cast<unsigned>(tasks.size() - pending.size());
    for (size_t index : pending)
        out.stats.experiments += out.tasks[index].result.experimentsUsed;
    out.stats.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    out.stats.engine = engine.stats();
    return out;
}

} // namespace raceval::campaign
