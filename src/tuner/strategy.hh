/**
 * @file
 * The search-strategy registry: one polymorphic seam between "a
 * black-box parameter-search algorithm" and everything that consumes
 * tuning results.
 *
 * The paper's claim (Fig. 2 step 4) is that iterated racing beats
 * unguided sampling at fitting simulator parameters to hardware. That
 * comparison is only expressible when racing is ONE strategy among
 * several behind a common interface: every strategy searches the same
 * ParameterSpace, evaluates through the same batched CostEvaluator
 * (so the engine's record-once/replay-many machinery serves them all),
 * spends the same experiment budget, and returns the same RaceResult.
 * The validation flow, the campaign orchestrator and the drivers
 * select a strategy by name instead of naming IteratedRacer, as they
 * select model families by tag from core::modelFamilies(). Unlike the
 * families, strategies stay an open registry: out-of-tree strategies
 * (examples/custom_tuner.cpp) register through registerStrategy().
 */

#ifndef RACEVAL_TUNER_STRATEGY_HH
#define RACEVAL_TUNER_STRATEGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tuner/evaluator.hh"
#include "tuner/space.hh"

namespace raceval::tuner
{

/**
 * Search options, shared by every strategy (defaults sized for the
 * scaled reproduction). Knobs without meaning for a strategy are
 * ignored by it; the ones every strategy honours are maxExperiments,
 * seed, eliteCount and verbose.
 */
struct RacerOptions
{
    /** Experiment budget: total (configuration, instance) evaluations
     *  (the paper uses 10 K - 100 K trials; scaled default 3 K). */
    uint64_t maxExperiments = 3000;
    /** Instances each candidate sees before the first statistical
     *  test (irace's "firstTest"); also the successive-halving
     *  strategy's first-rung instance count. */
    unsigned instancesBeforeFirstTest = 5;
    /** Significance level for elimination (irace only). */
    double alpha = 0.05;
    /** Elites carried between iterations / reported in
     *  RaceResult::elites. */
    unsigned eliteCount = 4;
    /** Candidates sampled per iteration (irace) / in total (random
     *  search) / per bracket (successive halving); 0 = auto from the
     *  budget. */
    unsigned candidatesPerIteration = 0;
    uint64_t seed = 20190324; // ISPASS'19
    /** Narrate rounds via inform(). */
    bool verbose = false;
};

/** Outcome of a tuning run, whatever strategy produced it. */
struct RaceResult
{
    Configuration best;
    /** Mean cost of `best` across all instances. */
    double bestMeanCost = 0.0;
    /** Per-instance costs of `best`, from a final full evaluation
     *  across every instance. That evaluation is reporting, not
     *  search: it is never charged against maxExperiments. Normally
     *  the strategy has already evaluated the winner on (nearly)
     *  every instance so it is served from the evaluator's cache;
     *  after a budget-truncated best-effort run it may run fresh
     *  evaluations beyond the stated budget. */
    std::vector<double> bestCosts;
    uint64_t experimentsUsed = 0;
    /** Strategy-defined progress unit: irace iterations, random
     *  search rounds (always 1), successive-halving brackets. */
    unsigned iterations = 0;
    /** Final elite set (best first) with mean costs over the
     *  instances each elite was searched on. */
    std::vector<std::pair<Configuration, double>> elites;
};

/**
 * Abstract search strategy: space + CostEvaluator + instance count +
 * options in (at construction), RaceResult out.
 *
 * Implementations must be deterministic: the trajectory may depend
 * only on the options (seed included) and the evaluator's
 * (deterministic) values -- never on cache temperature, scheduling or
 * wall time. Budget accounting is strategy-local: a strategy charges
 * maxExperiments for (configuration, instance) pairs new to its own
 * run, so a warm shared cache makes the identical run faster without
 * changing its result (same invariant IteratedRacer has always kept).
 */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** Run the full search; may be called once per instance. */
    virtual RaceResult run() = 0;

    /**
     * Seed the search with known configurations (irace's "initial
     * candidates"; the validation flow passes the public-information
     * model so tuning can only improve on it). Every strategy must
     * evaluate these alongside its own samples.
     */
    virtual void addInitialCandidate(const Configuration &config) = 0;
};

/** Factory signature of one registered strategy. */
using SearchStrategyFactory = std::unique_ptr<SearchStrategy> (*)(
    const ParameterSpace &space, CostEvaluator &evaluator,
    size_t num_instances, const RacerOptions &options);

/** Registry entry: identity + construction of one strategy. */
struct SearchStrategyInfo
{
    const char *name = "";        //!< stable CLI/report/checkpoint tag
    const char *description = ""; //!< one-line --list blurb
    /**
     * Campaign-checkpoint salt folded into the task-definition
     * fingerprint of every task racing under this strategy. Two tasks
     * differing only in strategy would otherwise fingerprint
     * identically and a resume would restore the wrong trajectory.
     * Must be distinct per strategy and stable across versions
     * (persisted checkpoints depend on it). Exception by design: the
     * default "irace" strategy contributes NO salt at all, so
     * checkpoints written before strategies existed (implicitly
     * irace) stay valid -- see campaign::taskFingerprint().
     */
    uint64_t fingerprintSalt = 0;
    SearchStrategyFactory make = nullptr;
};

/** The strategy every consumer defaults to (the paper's tuner). */
inline constexpr const char *defaultSearchStrategy = "irace";

/**
 * Declaration-ordered strategy registry. The three built-in
 * strategies (irace, random, halving) are pre-registered;
 * registerStrategy() is the extension point for out-of-tree
 * strategies (see examples/custom_tuner.cpp).
 */
class SearchStrategyRegistry
{
  public:
    /** @return the process-wide registry. */
    static SearchStrategyRegistry &instance();

    /** @return the entry named @p name, or nullptr when unknown. */
    const SearchStrategyInfo *find(const std::string &name) const;

    /** @return all registered strategies, declaration order. */
    const std::vector<SearchStrategyInfo> &all() const { return entries; }

    /** Register a strategy (fatal on duplicate name or salt). */
    void registerStrategy(const SearchStrategyInfo &info);

  private:
    SearchStrategyRegistry();
    std::vector<SearchStrategyInfo> entries;
};

/**
 * Construct a strategy by name (through the registry; fatal on an
 * unknown name -- callers with user-supplied names should find()
 * first).
 */
std::unique_ptr<SearchStrategy>
makeSearchStrategy(const std::string &name, const ParameterSpace &space,
                   CostEvaluator &evaluator, size_t num_instances,
                   RacerOptions options = {});

/** @return the checkpoint-fingerprint salt of a registered strategy. */
uint64_t searchStrategySalt(const std::string &name);

} // namespace raceval::tuner

#endif // RACEVAL_TUNER_STRATEGY_HH
