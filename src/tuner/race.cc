#include "tuner/race.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "obs/trace.hh"
#include "stats/descriptive.hh"
#include "stats/tests.hh"

namespace raceval::tuner
{

IteratedRacer::IteratedRacer(const ParameterSpace &space,
                             CostEvaluator &evaluator,
                             size_t num_instances, RacerOptions options)
    : space(space), evaluator(evaluator), numInstances(num_instances),
      opts(options)
{
    RV_ASSERT(space.size() > 0, "empty parameter space");
    RV_ASSERT(numInstances > 0, "no benchmark instances");
    RV_ASSERT(opts.maxExperiments > 0, "zero experiment budget");
}

void
IteratedRacer::addInitialCandidate(const Configuration &config)
{
    RV_ASSERT(config.size() == space.size(),
              "initial candidate has wrong arity");
    initialCandidates.push_back(config);
}

Configuration
IteratedRacer::sampleUniform(Rng &rng) const
{
    Configuration config(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
        config[i] = static_cast<uint16_t>(
            rng.nextBelow(space.at(i).cardinality()));
    }
    return config;
}

Configuration
IteratedRacer::sampleAroundElite(const Configuration &elite,
                                 unsigned iteration, Rng &rng) const
{
    // Distributions sharpen as iterations progress (irace's soft
    // restart schedule, simplified): ordinals use a shrinking
    // truncated normal around the elite level, categoricals keep the
    // elite value with growing probability.
    double sigma = std::max(0.06, 0.35 * std::pow(0.75, iteration));
    double explore = std::max(0.08, 0.50 * std::pow(0.70, iteration));

    Configuration config(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
        const Parameter &p = space.at(i);
        size_t card = p.cardinality();
        if (p.kind == Parameter::Kind::Ordinal && card > 1) {
            double step = rng.nextGaussian() * sigma
                * static_cast<double>(card);
            long idx = static_cast<long>(elite[i])
                + static_cast<long>(std::lround(step));
            idx = std::clamp(idx, 0l, static_cast<long>(card) - 1);
            config[i] = static_cast<uint16_t>(idx);
        } else {
            if (rng.nextDouble() < explore)
                config[i] = static_cast<uint16_t>(rng.nextBelow(card));
            else
                config[i] = elite[i];
        }
    }
    return config;
}

std::vector<IteratedRacer::Candidate>
IteratedRacer::race(std::vector<Candidate> candidates, Rng &rng,
                    bool salvage)
{
    std::vector<size_t> order = rng.permutation(numInstances);

    for (size_t t = 0; t < numInstances; ++t) {
        size_t instance = order[t];
        RV_SPAN("race.step", static_cast<uint64_t>(instance));

        // The whole racing step is one batch: every live candidate on
        // this instance. Only pairs new to this race cost budget;
        // repeats (elites re-racing an instance) are free, and the
        // evaluator deduplicates and caches behind the scenes.
        std::vector<EvalPair> step;
        std::vector<size_t> alive;
        uint64_t fresh = 0;
        for (size_t c = 0; c < candidates.size(); ++c) {
            if (!candidates[c].alive)
                continue;
            alive.push_back(c);
            if (!charged.count(
                    ChargedKey{candidates[c].config, instance}))
                ++fresh;
            step.emplace_back(candidates[c].config, instance);
        }
        bool truncated = false;
        if (experimentsUsed + fresh > opts.maxExperiments) {
            // Budget exhausted mid-race. If nothing has been costed
            // yet (only possible on the very first step: every later
            // step inherits costs from the one before), a plain break
            // would end the whole run empty-handed -- spend the
            // remaining budget on a truncated first step instead so
            // the racer can still return a best-effort result.
            if (!salvage || t != 0)
                break;
            uint64_t remaining = opts.maxExperiments - experimentsUsed;
            alive.resize(static_cast<size_t>(
                std::min<uint64_t>(alive.size(), remaining)));
            step.resize(alive.size());
            fresh = alive.size();
            truncated = true;
        }

        std::vector<double> step_costs = evaluator.evaluateMany(step);
        experimentsUsed += fresh;
        for (size_t k = 0; k < alive.size(); ++k) {
            charged.insert(
                ChargedKey{candidates[alive[k]].config, instance});
        }

        for (size_t k = 0; k < alive.size(); ++k)
            candidates[alive[k]].costs.push_back(step_costs[k]);

        if (truncated)
            break; // budget spent; rank whatever got costed

        // Statistical elimination.
        if (t + 1 < opts.instancesBeforeFirstTest || alive.size() < 2)
            continue;

        if (alive.size() == 2) {
            auto &a = candidates[alive[0]];
            auto &b = candidates[alive[1]];
            auto test = stats::pairedTTest(a.costs, b.costs, opts.alpha);
            if (test.significant) {
                (test.meanDiff > 0 ? a : b).alive = false;
            }
            continue;
        }

        // Friedman race: blocks = instances raced so far.
        size_t blocks = candidates[alive[0]].costs.size();
        std::vector<std::vector<double>> matrix(
            blocks, std::vector<double>(alive.size()));
        for (size_t c = 0; c < alive.size(); ++c) {
            for (size_t b = 0; b < blocks; ++b)
                matrix[b][c] = candidates[alive[c]].costs[b];
        }
        auto test = stats::friedmanTest(matrix, opts.alpha);
        if (!test.significant)
            continue;
        double best_rank =
            *std::min_element(test.rankSums.begin(), test.rankSums.end());
        for (size_t c = 0; c < alive.size(); ++c) {
            if (test.rankSums[c] - best_rank > test.criticalDifference)
                candidates[alive[c]].alive = false;
        }
    }

    std::vector<Candidate> survivors;
    for (Candidate &cand : candidates) {
        if (cand.alive && !cand.costs.empty())
            survivors.push_back(std::move(cand));
    }
    std::sort(survivors.begin(), survivors.end(),
              [](const Candidate &a, const Candidate &b) {
                  return stats::mean(a.costs) < stats::mean(b.costs);
              });
    return survivors;
}

RaceResult
IteratedRacer::run()
{
    RV_SPAN("race.run");
    Rng rng(opts.seed);
    unsigned num_iterations = 2 + static_cast<unsigned>(
        std::log2(std::max<size_t>(2, space.size())));

    std::vector<std::pair<Configuration, double>> elites;
    RaceResult result;

    for (unsigned iter = 0; iter < num_iterations; ++iter) {
        RV_SPAN("race.iteration", iter);
        if (experimentsUsed >= opts.maxExperiments)
            break;

        uint64_t remaining = opts.maxExperiments - experimentsUsed;
        uint64_t budget_this_iter = remaining / (num_iterations - iter);
        // Most candidates die shortly after the first test, so the
        // expected spend per candidate is little more than firstTest
        // (elites, which run the full distance, are the exception).
        unsigned expected_per_candidate =
            opts.instancesBeforeFirstTest + 3;
        unsigned num_candidates = opts.candidatesPerIteration;
        if (num_candidates == 0) {
            // The hi bound must track eliteCount: clamp's behaviour is
            // undefined once lo > hi, which a large eliteCount (>= 61)
            // used to trigger.
            uint64_t lo = uint64_t{opts.eliteCount} + 4;
            uint64_t hi = std::max<uint64_t>(64, lo);
            num_candidates = static_cast<unsigned>(std::clamp<uint64_t>(
                budget_this_iter / std::max(1u, expected_per_candidate),
                lo, hi));
        }

        std::vector<Candidate> candidates;
        // Elites survive into the next race (with fresh cost vectors:
        // instance order changes between races).
        for (const auto &[config, mean_cost] : elites) {
            (void)mean_cost;
            candidates.push_back(Candidate{config, {}, true});
        }
        if (iter == 0) {
            for (const Configuration &config : initialCandidates)
                candidates.push_back(Candidate{config, {}, true});
        }
        while (candidates.size() < num_candidates) {
            if (elites.empty()) {
                candidates.push_back(
                    Candidate{sampleUniform(rng), {}, true});
            } else {
                // Rank-weighted parent selection.
                std::vector<double> weights(elites.size());
                for (size_t e = 0; e < elites.size(); ++e)
                    weights[e] =
                        static_cast<double>(elites.size() - e);
                size_t parent = rng.nextWeighted(weights);
                candidates.push_back(Candidate{
                    sampleAroundElite(elites[parent].first, iter, rng),
                    {}, true});
            }
        }

        // Salvage is only armed while there is no elite to fall back
        // on, so any race that already produced a result keeps its
        // exact historical trajectory.
        std::vector<Candidate> survivors =
            race(std::move(candidates), rng, elites.empty());
        if (survivors.empty())
            break;

        elites.clear();
        for (size_t s = 0;
             s < std::min<size_t>(survivors.size(), opts.eliteCount);
             ++s) {
            elites.emplace_back(survivors[s].config,
                                stats::mean(survivors[s].costs));
        }
        ++result.iterations;
        if (opts.verbose) {
            inform("irace iter %u: %zu survivors, best cost %.4f, "
                   "%llu/%llu experiments", iter + 1, survivors.size(),
                   elites[0].second,
                   static_cast<unsigned long long>(experimentsUsed),
                   static_cast<unsigned long long>(opts.maxExperiments));
        }
    }

    RV_ASSERT(!elites.empty(), "iterated race produced no survivors");

    // Final full evaluation of the winner across every instance (all
    // or nearly all served from the evaluator's cache).
    result.best = elites[0].first;
    std::vector<EvalPair> final_pairs;
    final_pairs.reserve(numInstances);
    for (size_t i = 0; i < numInstances; ++i)
        final_pairs.emplace_back(result.best, i);
    result.bestCosts = evaluator.evaluateMany(final_pairs);
    result.bestMeanCost = stats::mean(result.bestCosts);
    result.experimentsUsed = experimentsUsed;
    result.elites = std::move(elites);
    return result;
}

} // namespace raceval::tuner
