/**
 * @file
 * End-to-end validation (Fig. 1 of the paper): build the
 * public-information Cortex-A53 model, probe cache latencies on the
 * "board", race the undisclosed parameters with irace, and report the
 * error before and after. A small budget keeps this example quick;
 * raise it (or set RACEVAL_BUDGET in the benches) for tighter fits.
 */

#include <cstdio>
#include <string_view>

#include "common/log.hh"
#include "validate/flow.hh"

using namespace raceval;

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--smoke") {
            smoke = true;
        } else {
            std::printf("usage: %s [--smoke]\nRun the full six-step "
                        "validation flow against the A53 board.\n",
                        argv[0]);
            return std::string_view(argv[i]) == "--help" ||
                   std::string_view(argv[i]) == "-h" ? 0 : 2;
        }
    }

    validate::FlowOptions opts;
    opts.budget = smoke ? 300 : 2000; // paper: 10K-100K trials
    opts.verbose = true;
    validate::ValidationFlow flow(scenario::targetOrDie("cortex-a53"),
                                  core::ModelFamily::InOrder, opts);
    validate::FlowReport report = flow.run();

    std::printf("\nprobed latencies: l1d=%u cycles, l2=%u cycles\n",
                report.latencies.l1d, report.latencies.l2);
    std::printf("untuned avg ubench CPI error: %.1f%%\n",
                100.0 * report.untunedUbenchAvg);
    std::printf("tuned   avg ubench CPI error: %.1f%%\n",
                100.0 * report.tunedUbenchAvg);
    std::printf("experiments used: %llu\n",
                static_cast<unsigned long long>(
                    report.race.experimentsUsed));
    std::printf("\ntuned configuration:\n  %s\n",
                flow.paramSpace().space()
                    .describe(report.race.best).c_str());
    std::printf("\n%s\n", report.engineStats.summary().c_str());
    return 0;
}
