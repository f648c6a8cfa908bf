/**
 * @file
 * Fig. 6 reproduction: per-SPEC-benchmark absolute CPI prediction
 * error of the tuned out-of-order Cortex-A72 model vs. the board.
 *
 * Paper reference: 15% average with a couple of outliers near 30%
 * (povray and x264, prefetcher-dominated). More than half of the
 * benchmarks come in below 10%.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "stats/descriptive.hh"
#include "workload/workload.hh"

int
main(int argc, char **argv)
{
    using namespace raceval;
    bench::parseDriverArgs(argc, argv,
                           "Fig. 6: tuned A72 model CPI error on the "
                           "held-out SPEC CPU2017 stand-ins.");
    setQuiet(true);
    bench::header("Fig. 6: tuned A72 model vs hardware on SPEC "
                  "CPU2017 stand-ins");

    const scenario::TargetBoard &board = bench::benchTarget("cortex-a72");
    validate::ValidationFlow flow(board, board.defaultFamily,
                                  bench::benchFlowOptions());
    validate::FlowReport report = flow.run();

    std::printf("%-11s %10s %10s %10s\n", "benchmark", "hw CPI",
                "sim CPI", "error");
    std::vector<double> errors;
    for (const auto &info : workload::all()) {
        isa::Program prog = bench::workloadProgram(info);
        validate::BenchError err =
            flow.evaluateOn(report.tunedModel, prog);
        errors.push_back(err.error());
        std::printf("%-11s %10.3f %10.3f %9.1f%%\n", info.name,
                    err.hwCpi, err.simCpi, 100.0 * err.error());
    }

    std::printf("\n");
    bench::paperVsMeasured("average CPI error (%)", 15.0,
                           100.0 * stats::mean(errors));
    bench::paperVsMeasured("max single-benchmark error (%)", 30.0,
                           100.0 * stats::maxOf(errors));
    std::printf("(tuned ubench error was %.1f%%, untuned %.1f%%)\n",
                100.0 * report.tunedUbenchAvg,
                100.0 * report.untunedUbenchAvg);
    engine::EngineStats stats = flow.engine().stats();
    bench::printEngineStats(stats);
    bench::writeJson(&stats);
    return 0;
}
