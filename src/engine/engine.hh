/**
 * @file
 * The batched, cached, trace-replay evaluation engine -- the service
 * every consumer of simulation results goes through.
 *
 * The paper's methodology is bounded by evaluation throughput
 * (10K-100K (configuration, instance) experiments per racing run,
 * paper §III-C). The engine attacks that hot path with the
 * record-once/replay-many discipline:
 *
 *   - a TraceBank functionally executes each benchmark exactly once
 *     and memoizes the dynamic instruction stream, so every candidate
 *     evaluation is a pure trace replay into a timing model;
 *   - a sharded EvalCache keyed by content fingerprints makes repeated
 *     and near-identical evaluations (elite re-races, perturbation
 *     sweeps) free; saved to disk and mapped back read-only, it warms
 *     later runs;
 *   - a BatchEvaluator executes a whole racing step as one
 *     deduplicated batch over the thread pool;
 *   - EngineStats reports the resulting fresh evals/s to the drivers
 *     (budget-charged experiments/s is CampaignStats' number).
 */

#ifndef RACEVAL_ENGINE_ENGINE_HH
#define RACEVAL_ENGINE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "engine/eval_cache.hh"
#include "engine/trace_bank.hh"
#include "tuner/evaluator.hh"

namespace raceval::engine
{

/** Engine construction knobs. */
struct EngineOptions
{
    /** Worker threads for batch evaluation (0 = hardware). */
    unsigned threads = 0;
};

/** Aggregate engine report, surfaced by the drivers. */
struct EngineStats
{
    TraceBankStats bank;
    EvalCacheStats cache;
    uint64_t requests = 0;    //!< evaluation requests served
    uint64_t evaluations = 0; //!< fresh simulations actually run
    uint64_t warmFileHits = 0; //!< evals served by the mapped warm file
    uint64_t batches = 0;     //!< collected batches
    uint64_t batchSubmissions = 0; //!< tickets submitted to batches
    uint64_t batchDeduplicated = 0; //!< tickets folded into another
    /** Dynamic instructions stepped by fresh simulations (cache and
     *  warm-file hits replay nothing and add nothing). */
    uint64_t instsSimulated = 0;
    /** Wall time spent evaluating: each batch wave charges its wall
     *  clock once, however many workers ran it. */
    double evalSeconds = 0.0;

    /** @return fresh simulations per second of evaluation wall time. */
    double
    experimentsPerSecond() const
    {
        return evalSeconds > 0.0
            ? static_cast<double>(evaluations) / evalSeconds : 0.0;
    }

    /** @return evaluation wall nanoseconds per simulated instruction
     *  (the per-instruction cost the hot-path work targets). */
    double
    nsPerInst() const
    {
        return instsSimulated
            ? evalSeconds * 1e9 / static_cast<double>(instsSimulated)
            : 0.0;
    }

    /** @return simulated instructions per microsecond of evaluation
     *  wall time (simulated MIPS, the paper-facing speed number). */
    double
    simulatedMips() const
    {
        return evalSeconds > 0.0
            ? static_cast<double>(instsSimulated) / evalSeconds / 1e6
            : 0.0;
    }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /** JSON object (for the --json bench blobs). */
    std::string json() const;
};

/**
 * Cost metric over one simulated run.
 *
 * @param stats timing-model output for (model, instance).
 * @param instance the bank instance id that was replayed.
 * @return the objective value; must be deterministic and thread-safe.
 */
using SimCostFn = std::function<double(const core::CoreStats &stats,
                                       size_t instance)>;

/** config -> model materializer (e.g. SniperParamSpace::apply). */
using ModelFn =
    std::function<core::CoreParams(const tuner::Configuration &config)>;

class BatchEvaluator;

/**
 * The evaluation engine.
 *
 * Implements tuner::CostEvaluator, so any tuner::SearchStrategy wired
 * to the engine searches entirely on cached trace replays. Also serves
 * raw
 * model evaluations (evaluateModel) for the validation flow's error
 * reports and the perturbation sweeps.
 *
 * Thread-safety: evaluate()/evaluateModel()/batches may be used from
 * multiple threads; the cost and model functions must be thread-safe.
 */
class EvalEngine : public tuner::CostEvaluator
{
  public:
    /**
     * @param family the default timing-model family replayed into.
     *        Per-call overloads may evaluate any model family
     *        over the same TraceBank and EvalCache: every cache key is
     *        salted with the family's fingerprint, so results never
     *        alias across families.
     * @param options engine knobs.
     */
    explicit EvalEngine(core::ModelFamily family,
                        EngineOptions options = {});

    /**
     * Register a benchmark instance (deduplicated by content).
     *
     * @return the instance id used in every evaluation call.
     */
    size_t addInstance(const isa::Program &program);

    /** @return registered instance count. */
    size_t numInstances() const { return bank.size(); }

    /**
     * Mark an instance as held out (the paper's hold-out contract:
     * Table II SPEC stand-ins are measured and reported but never
     * tuned against). Any racing experiment -- a Configuration-keyed
     * evaluation, the path every search strategy charges its budget
     * through -- against a held-out instance panics; raw model
     * evaluations (evaluateModel / submitModel) stay allowed, they
     * are reporting. Mark before evaluation starts; marking is not
     * synchronized against concurrent evaluation.
     */
    void markHeldOut(size_t instance);

    /** @return true when the instance was marked held out. */
    bool
    isHeldOut(size_t instance) const
    {
        return instance < heldOutFlags.size() && heldOutFlags[instance];
    }

    /** @return the default model family (construction-time choice). */
    core::ModelFamily modelFamily() const { return fam; }

    /**
     * Set the configuration materializer. Required before any
     * Configuration-keyed evaluation.
     */
    void setModelFn(ModelFn fn) { modelFn = std::move(fn); }

    /**
     * Set the cost metric.
     *
     * @param fn the metric; when unset, cost = simulated CPI.
     * @param cost_tag salt folded into every cache key so results from
     *        different metrics never alias (e.g. the CostKind).
     */
    void
    setCostFn(SimCostFn fn, uint64_t cost_tag)
    {
        costFn = std::move(fn);
        costTagValue = cost_tag;
    }

    /** @return the cost metric's cache-key salt (its identity, e.g.
     *  for content fingerprints of work scored by this engine). */
    uint64_t costTag() const { return costTagValue; }

    /// @name Evaluation
    /// @{

    /** Evaluate a raced configuration on an instance: materialized
     *  through the model fn, then cached by model content -- racing,
     *  error reports and perturbation sweeps share entries. */
    double evaluate(const tuner::Configuration &config, size_t instance);

    /** Evaluate a raw model on an instance (cache-aware), replaying
     *  into the default family. */
    EvalValue evaluateModel(const core::CoreParams &model,
                            size_t instance);

    /** Evaluate a raw model on an instance under an explicit timing
     *  family (cache-aware; keys are family-salted, so families share
     *  the cache without aliasing). */
    EvalValue evaluateModel(core::ModelFamily family,
                            const core::CoreParams &model,
                            size_t instance);

    /** Replay an instance into the default family, bypassing the
     *  cache. */
    core::CoreStats replayRun(const core::CoreParams &model,
                              size_t instance);

    /** Replay an instance into an explicit family, bypassing the
     *  cache. */
    core::CoreStats replayRun(core::ModelFamily family,
                              const core::CoreParams &model,
                              size_t instance);

    // tuner::CostEvaluator: the racing hot path.
    std::vector<double>
    evaluateMany(const std::vector<tuner::EvalPair> &pairs) override;

    /// @}

    /// @name Cache persistence
    /// @{
    /**
     * Persist the EvalCache plus every record of the mapped warm file
     * (so records of programs this run never registered survive). On
     * disk the instance half of every key is the *program
     * fingerprint* rather than the bank-local id, so files survive
     * instance registration order and count changing between runs.
     * The file is written aside and renamed into place, so a live
     * mapping of the old file -- this engine's or another's -- stays
     * valid.
     *
     * @return entries written (0 on I/O failure -- a warm-start file
     *         is a hint, failure to write one never kills a run).
     */
    size_t saveCache(const std::string &path) const;

    /**
     * Map a previously saved cache file read-only (v3 format) and
     * serve fresh evaluations from it before simulating.
     *
     * Nothing is copied onto the heap: the file is mmap'd and
     * binary-searched in place, so a whole campaign fleet of engines
     * (threads or processes) shares one physical copy of the warm
     * results. Keys resolve through program fingerprints, so programs
     * registered after mapping are served too. Keys carry their
     * timing-model family salt, so one file may serve engines of every
     * family without aliasing. Map before evaluation starts; mapping
     * is not synchronized against concurrent evaluation.
     *
     * @return records mapped (0 on failure -- missing file, v2 or
     *         foreign format, digest mismatch -- with a warning).
     */
    size_t mapWarmFile(const std::string &path);

    /** @return the active warm-file mapping (null when none). */
    std::shared_ptr<const MappedEvalFile>
    warmFile() const
    {
        return warm;
    }
    /// @}

    TraceBank &traceBank() { return bank; }
    const TraceBank &traceBank() const { return bank; }

    EngineStats stats() const;

  private:
    friend class BatchEvaluator;

    EvalKey modelKey(core::ModelFamily family,
                     const core::CoreParams &model,
                     size_t instance) const;
    /** Apply the model fn (asserts one is set). */
    core::CoreParams materialize(const tuner::Configuration &config)
        const;
    /** Record-replay-score one experiment; consults the mapped warm
     *  file first. Timing models run only here. */
    EvalValue computeFresh(core::ModelFamily family,
                           const core::CoreParams &model,
                           size_t instance);
    /** Consult the mapped warm file. @return true when served. */
    bool warmLookup(core::ModelFamily family,
                    const core::CoreParams &model, size_t instance,
                    EvalValue &out);
    /** Score a finished replay through the cost metric. */
    EvalValue scoreRun(const core::CoreStats &run, size_t instance);
    /** Content fingerprint of an instance's program (memoized; the
     *  instance half of on-disk cache keys). */
    uint64_t programFingerprint(size_t instance) const;
    /** Add wall time since @p start to the evaluation clock. */
    void chargeWall(std::chrono::steady_clock::time_point start);

    core::ModelFamily fam;
    TraceBank bank;
    EvalCache cache;
    ThreadPool pool;
    ModelFn modelFn;
    SimCostFn costFn;          //!< nullptr = simulated CPI
    uint64_t costTagValue = 0; //!< cache-key salt of costFn

    /** Instances marked held out (never raced); see markHeldOut(). */
    std::vector<bool> heldOutFlags;

    /** Read-only mapped warm file (see mapWarmFile). */
    std::shared_ptr<const MappedEvalFile> warm;
    /** Memoized program fingerprints by instance id. */
    mutable std::mutex fpMutex;
    mutable std::vector<uint64_t> instanceFps;

    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> evaluations{0};
    std::atomic<uint64_t> warmFileHitCount{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> batchSubmissions{0};
    std::atomic<uint64_t> batchDeduplicated{0};
    std::atomic<uint64_t> instsSimulatedCount{0};
    std::atomic<uint64_t> evalNanos{0};
};

/**
 * Asynchronous submit/collect over the engine.
 *
 * submit() is cheap and deduplicating: identical keys in one batch
 * share a single slot (and a single simulation). collect() runs every
 * fresh slot as its own work item over the engine's thread pool --
 * the warm file first, else one replay -- and fills the cache;
 * afterwards cost()/simCpi() answer by ticket.
 */
class BatchEvaluator
{
  public:
    using Ticket = size_t;

    explicit BatchEvaluator(EvalEngine &engine);

    /** Queue a raced configuration; @return the result ticket. */
    Ticket submit(const tuner::Configuration &config, size_t instance);

    /** Queue a raw model (replayed into the engine's default family);
     *  @return the result ticket. */
    Ticket submitModel(const core::CoreParams &model, size_t instance);

    /**
     * Queue a raw model under an explicit timing family. One batch may
     * mix families freely -- keys are family-salted, so slots of
     * different families never deduplicate into each other.
     */
    Ticket submitModel(core::ModelFamily family,
                       const core::CoreParams &model, size_t instance);

    /** Evaluate every pending slot; idempotent. */
    void collect();

    /** @return objective for a ticket (collect() must have run). */
    double cost(Ticket ticket) const;

    /** @return simulated CPI for a ticket (collect() must have run). */
    double simCpi(Ticket ticket) const;

    /** @return tickets submitted so far. */
    size_t submitted() const { return tickets.size(); }

    /** @return unique experiments the batch will/did run. */
    size_t uniqueSlots() const { return slots.size(); }

  private:
    struct Slot
    {
        EvalKey key;
        size_t instance;
        core::ModelFamily family = core::ModelFamily::InOrder;
        core::CoreParams model; //!< unused once served
        EvalValue value;
        bool served = false; //!< filled from cache at submit time
    };

    /** Evaluate one fresh slot and cache its value. */
    void runSolo(Slot &slot);

    EvalEngine &engine;
    std::vector<size_t> tickets; //!< ticket -> slot index
    std::vector<Slot> slots;
    std::unordered_map<uint64_t, size_t> slotIndex; //!< mixed key -> slot
    bool collected = false;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_ENGINE_HH
