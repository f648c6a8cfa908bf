/**
 * @file
 * The near-optimum perturbation study (paper §VI-B, Figs. 7/8): start
 * from the tuned configuration and find the *worst* configuration
 * reachable by moving parameters a single step from their optimum,
 * demonstrating how sharply accuracy degrades around the optimum.
 *
 * The paper searches exhaustively; this reproduction uses greedy
 * coordinate ascent plus randomized multi-parameter refinement. That
 * search visits only a subset of the one-step neighbours, so the worst
 * error it reports is a lower bound on the true worst case. All probes
 * of one greedy step (and all random refinements) are independent, so the
 * search evaluates them as batches -- the evaluation engine
 * deduplicates and caches them across the sweep.
 */

#ifndef RACEVAL_VALIDATE_PERTURB_HH
#define RACEVAL_VALIDATE_PERTURB_HH

#include <functional>
#include <vector>

#include "tuner/space.hh"
#include "validate/sniper_space.hh"

namespace raceval::validate
{

/** Objective: mean CPI error of a configuration (to be maximized). */
using ErrorFn = std::function<double(const tuner::Configuration &)>;

/**
 * Batched objective: mean CPI errors of many configurations at once,
 * in input order. Implementations are expected to deduplicate and
 * cache (ValidationFlow::ubenchErrorBatch through the engine does).
 */
using BatchErrorFn = std::function<std::vector<double>(
    const std::vector<tuner::Configuration> &)>;

/** Result of the worst-neighbor search. */
struct PerturbResult
{
    tuner::Configuration worst;
    double worstError = 0.0;
    double tunedError = 0.0;
    unsigned evaluations = 0;
};

/**
 * Find a worst near-optimum configuration.
 *
 * Ordinal parameters may move one level up or down, flags may flip,
 * and categorical parameters may switch to any other value (each
 * counts as a single step, multiple parameters may deviate at once).
 *
 * @param space the raced space.
 * @param tuned the optimum to perturb around.
 * @param error batched objective (mean CPI error across benchmarks).
 * @param random_refinements extra randomized multi-step probes.
 * @param seed rng seed for the refinement phase.
 */
PerturbResult worstNearOptimum(const SniperParamSpace &space,
                               const tuner::Configuration &tuned,
                               const BatchErrorFn &error,
                               unsigned random_refinements = 24,
                               uint64_t seed = 7);

/** Convenience overload over a scalar objective (probes evaluated one
 *  at a time; identical search trajectory). */
PerturbResult worstNearOptimum(const SniperParamSpace &space,
                               const tuner::Configuration &tuned,
                               const ErrorFn &error,
                               unsigned random_refinements = 24,
                               uint64_t seed = 7);

} // namespace raceval::validate

#endif // RACEVAL_VALIDATE_PERTURB_HH
