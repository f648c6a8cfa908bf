/**
 * @file
 * Fig. 4 reproduction: per-micro-benchmark absolute CPI prediction
 * error for the Cortex-A53 model, before and after tuning.
 *
 * Paper reference: untuned average approaches 50% with a 5.6x outlier
 * (ED1); after fixing model errors and racing, the average drops to
 * about 10%.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "stats/descriptive.hh"

int
main(int argc, char **argv)
{
    using namespace raceval;
    bench::parseDriverArgs(argc, argv,
                           "Fig. 4: per-ubench A53 CPI error before "
                           "and after racing-based tuning.");
    setQuiet(true);
    bench::header("Fig. 4: A53 micro-benchmark CPI error, "
                  "not tuned vs tuned");

    const scenario::TargetBoard &board = bench::benchTarget("cortex-a53");
    validate::ValidationFlow flow(board, board.defaultFamily,
                                  bench::benchFlowOptions());
    validate::FlowReport report = flow.run();

    std::printf("%-12s %10s %10s %10s %12s %12s\n", "ubench", "hw CPI",
                "untunedCPI", "tunedCPI", "untunedErr", "tunedErr");
    std::vector<double> untuned, tuned;
    for (size_t i = 0; i < report.untunedUbench.size(); ++i) {
        const auto &u = report.untunedUbench[i];
        const auto &t = report.tunedUbench[i];
        untuned.push_back(u.error());
        tuned.push_back(t.error());
        std::printf("%-12s %10.3f %10.3f %10.3f %11.1f%% %11.1f%%\n",
                    u.name.c_str(), u.hwCpi, u.simCpi, t.simCpi,
                    100.0 * u.error(), 100.0 * t.error());
    }

    std::printf("\n");
    bench::paperVsMeasured("average untuned CPI error (%)", 50.0,
                           100.0 * stats::mean(untuned));
    bench::paperVsMeasured("worst untuned error (x, ED1=5.6x)", 5.6,
                           stats::maxOf(untuned));
    bench::paperVsMeasured("average tuned CPI error (%)", 10.0,
                           100.0 * stats::mean(tuned));
    bench::note("\nshape check: tuning must cut the average error by "
                ">= 4x and tame the multi-x outliers.");
    std::printf("racing: %llu experiments, %u iterations, probed "
                "l1d=%u l2=%u\n",
                static_cast<unsigned long long>(
                    report.race.experimentsUsed),
                report.race.iterations, report.latencies.l1d,
                report.latencies.l2);
    bench::printEngineStats(report.engineStats);
    bench::writeJson(&report.engineStats);
    return 0;
}
