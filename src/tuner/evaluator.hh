/**
 * @file
 * The evaluation service boundary of the tuner.
 *
 * The racer no longer evaluates or memoizes costs itself: every racing
 * step hands the full (configuration, instance) batch to a
 * CostEvaluator, which is free to deduplicate, cache, parallelize and
 * replay traces behind the scenes. engine::EvalEngine is the
 * production implementation; SimpleCostEvaluator wraps a plain cost
 * lambda for tests, examples and custom objectives.
 */

#ifndef RACEVAL_TUNER_EVALUATOR_HH
#define RACEVAL_TUNER_EVALUATOR_HH

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "tuner/space.hh"

namespace raceval::tuner
{

/**
 * Cost of one configuration on one benchmark instance; must be
 * thread-safe and deterministic (results are cached).
 */
using CostFn = std::function<double(const Configuration &,
                                    size_t instance)>;

/** One experiment: a configuration raced on an instance. */
using EvalPair = std::pair<Configuration, size_t>;

/**
 * Batched, cache-aware cost evaluation.
 *
 * Implementations must be deterministic: evaluating the same pair
 * twice (cached or not) must yield bit-identical costs, since the
 * racer's statistical eliminations compare them exactly. Budget
 * accounting is NOT the evaluator's business -- the racer counts the
 * experiments new to its own race, so a warm result cache makes a race
 * faster without changing its trajectory.
 */
class CostEvaluator
{
  public:
    virtual ~CostEvaluator() = default;

    /**
     * Evaluate every pair as one batch (deduplicating identical pairs
     * and serving cached ones for free).
     *
     * @return costs in the order of @p pairs.
     */
    virtual std::vector<double>
    evaluateMany(const std::vector<EvalPair> &pairs) = 0;

    /** Convenience single evaluation through the batch path. */
    double
    evaluate(const Configuration &config, size_t instance)
    {
        return evaluateMany({{config, instance}}).front();
    }
};

/**
 * CostEvaluator over a plain cost lambda: memoizes by configuration
 * content and parallelizes fresh evaluations over a thread pool --
 * exactly the behaviour the racer had built in before the evaluation
 * engine existed.
 */
class SimpleCostEvaluator : public CostEvaluator
{
  public:
    /**
     * @param cost the cost oracle (thread-safe, deterministic).
     * @param threads worker threads (0 = the CPUs this thread may run
     *        on; see ThreadPool).
     */
    explicit SimpleCostEvaluator(CostFn cost, unsigned threads = 0);

    std::vector<double>
    evaluateMany(const std::vector<EvalPair> &pairs) override;

  private:
    /** Exact-pair hash: costs are memoized by full (configuration,
     *  instance) content, never by a foldable 64-bit digest that could
     *  collide and alias two different experiments. */
    struct PairHash
    {
        size_t operator()(const EvalPair &pair) const;
    };

    CostFn cost;
    std::unordered_map<EvalPair, double, PairHash> memo;
    ThreadPool pool;
};

} // namespace raceval::tuner

#endif // RACEVAL_TUNER_EVALUATOR_HH
