/**
 * @file
 * Ablation (DESIGN.md): why racing? Compare iterated racing against
 * uniform random search at the same experiment budget, on the A53
 * tuning task. The baseline is the registered "random" search
 * strategy (the same implementation strategy_comparison and the
 * campaign layer use), run over the flow's own engine and cost
 * domain, so both searches draw from one cache and one metric.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "stats/descriptive.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"

int
main(int argc, char **argv)
{
    using namespace raceval;
    bench::parseDriverArgs(argc, argv,
                           "Ablation: iterated racing vs uniform "
                           "random search at the same budget.");
    setQuiet(true);
    bench::header("Ablation: iterated racing vs random search at "
                  "equal budget");

    validate::FlowOptions opts = bench::benchFlowOptions();
    opts.budget = bench::budgetFromEnv(2400);
    const scenario::TargetBoard &board = bench::benchTarget("cortex-a53");
    validate::ValidationFlow flow(board, board.defaultFamily, opts);
    validate::FlowReport report = flow.run();
    const auto &sspace = flow.paramSpace();
    size_t num_ubench = ubench::all().size();

    // Random search at the same budget, through the registry: the
    // flow's engine is the evaluator (its model fn was set by run(),
    // its cost metric is the racing objective), so the baseline
    // evaluates exactly what racing evaluated. A different seed keeps
    // its samples decorrelated from irace's.
    tuner::RacerOptions random_opts;
    random_opts.maxExperiments = opts.budget;
    random_opts.seed = opts.seed + 17;
    auto random_search = tuner::makeSearchStrategy(
        "random", sspace.space(), flow.engine(), num_ubench,
        random_opts);
    tuner::RaceResult random_result = random_search->run();
    double best_random = random_result.bestMeanCost;

    std::printf("budget: %llu experiments, %zu raced parameters\n",
                static_cast<unsigned long long>(opts.budget),
                sspace.space().size());
    std::printf("%-40s %10.1f%%\n", "untuned (public info) error",
                100.0 * report.untunedUbenchAvg);
    std::printf("%-40s %10.1f%%\n", "random search best error",
                100.0 * best_random);
    std::printf("%-40s %10.1f%%\n", "iterated racing error",
                100.0 * report.tunedUbenchAvg);
    bench::note("\nshape check: racing < random search < untuned.");
    bench::jsonMetric("untuned error", 100.0 * report.untunedUbenchAvg);
    bench::jsonMetric("random search error", 100.0 * best_random);
    bench::jsonMetric("racing error", 100.0 * report.tunedUbenchAvg);
    engine::EngineStats stats = flow.engine().stats();
    bench::printEngineStats(stats);
    bench::writeJson(&stats);
    return 0;
}
