/**
 * @file
 * Iterated racing (irace / I-Race, Birattari et al. [18], López-Ibáñez
 * et al. [31]) implemented from scratch -- the engine of the paper's
 * validation methodology (step #4, Fig. 2).
 *
 * Each iteration (1) samples candidate configurations from
 * per-parameter distributions biased toward the surviving elites,
 * (2) races candidates across the benchmark instances, eliminating
 * statistically inferior ones with a Friedman test + Conover post-hoc
 * (paired t-test once only two remain), and (3) promotes the survivors
 * to elites, sharpening the sampling distributions. The process stops
 * when the experiment budget (configurations x instances evaluated) is
 * exhausted.
 */

#ifndef RACEVAL_TUNER_RACE_HH
#define RACEVAL_TUNER_RACE_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "tuner/charged_set.hh"
#include "tuner/strategy.hh"

namespace raceval::tuner
{

/** The iterated-racing strategy (registered as "irace"). */
class IteratedRacer : public SearchStrategy
{
  public:
    /**
     * Race over an external evaluation service (e.g. the trace-replay
     * engine::EvalEngine): every racing step is handed to the
     * evaluator as one deduplicated batch, and cached results are free
     * (they do not consume the experiment budget).
     *
     * @param space parameter declarations.
     * @param evaluator batched cost evaluation (borrowed; must outlive
     *        the racer).
     * @param num_instances benchmark instance count.
     * @param options tuning knobs.
     */
    IteratedRacer(const ParameterSpace &space, CostEvaluator &evaluator,
                  size_t num_instances, RacerOptions options = {});

    /** Run the full iterated race. */
    RaceResult run() override;

    /**
     * Seed the first iteration with known configurations (irace's
     * "initial candidates"; the validation flow passes the
     * public-information model so tuning can only improve on it).
     */
    void addInitialCandidate(const Configuration &config) override;

  private:
    struct Candidate
    {
        Configuration config;
        std::vector<double> costs; //!< per raced instance, in order
        bool alive = true;
    };

    Configuration sampleUniform(Rng &rng) const;
    Configuration sampleAroundElite(const Configuration &elite,
                                    unsigned iteration, Rng &rng) const;
    /**
     * Race candidates over instances; returns survivors sorted by
     * mean cost (fills costs for every survivor on every raced
     * instance).
     *
     * @param salvage when the budget cannot cover even the first
     *        racing step, spend what remains on a truncated step
     *        rather than returning empty-handed. Passed only while no
     *        elites exist yet, so races that already produced a result
     *        keep their exact historical trajectory.
     */
    std::vector<Candidate> race(std::vector<Candidate> candidates,
                                Rng &rng, bool salvage);

    const ParameterSpace &space;
    CostEvaluator &evaluator;
    size_t numInstances;
    RacerOptions opts;
    uint64_t experimentsUsed = 0;
    /** (config, instance) pairs this race has already charged against
     *  its budget (see charged_set.hh). */
    ChargedSet charged;
    std::vector<Configuration> initialCandidates;
};

} // namespace raceval::tuner

#endif // RACEVAL_TUNER_RACE_HH
