/**
 * @file
 * Fig. 4-style comparison across the timing-model families: the same
 * six-step validation flow (public-info model, probing, iterated
 * racing, tuned model) runs once per family and the per-family untuned
 * vs tuned mean micro-benchmark CPI errors land side by side.
 *
 * By default every model family races its pre-scenario board
 * (in-order and interval against the A53-class board, OoO against the
 * A72-class board). With an explicit --target <board> the sweep
 * narrows to that board's whitelisted families -- e.g.
 * `--target cortex-m-class` runs all three families against the
 * microcontroller-class board.
 *
 * The paper's headline shape (Fig. 4: tuning cuts the error by
 * multiples) must hold for every family; the interval core is the
 * deliberately most abstract of the three, so its residual (tuned)
 * error reads as the cost of the interval abstraction.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"
#include "core/timing_model.hh"
#include "scenario/scenario.hh"
#include "validate/flow.hh"

int
main(int argc, char **argv)
{
    using namespace raceval;
    bench::parseDriverArgs(argc, argv,
                           "Family comparison: run the full validation "
                           "flow per timing-model family (per-family "
                           "default boards, or one --target board) and "
                           "compare untuned vs tuned CPI error.");
    setQuiet(true);
    bench::header("Timing-model family comparison: untuned vs tuned "
                  "ubench CPI error");

    // The sweep: (family, board) pairs. Default is the pre-scenario
    // mapping; an explicit --target pins the board and iterates its
    // family whitelist instead.
    std::vector<std::pair<core::ModelFamily,
                          const scenario::TargetBoard *>> runs;
    if (bench::targetExplicit()) {
        const scenario::TargetBoard &board =
            bench::benchTarget("cortex-a53");
        for (core::ModelFamily family : board.families)
            runs.emplace_back(family, &board);
    } else {
        for (const core::ModelFamilyInfo &info : core::modelFamilies()) {
            runs.emplace_back(info.family,
                              &scenario::defaultTargetFor(info.family));
        }
    }

    std::printf("%-9s %-14s %10s %10s %12s %6s\n", "family", "board",
                "untunedErr", "tunedErr", "experiments", "iters");
    bool all_improved = true;
    for (const auto &[family, board] : runs) {
        const char *name = core::modelFamilyName(family);
        validate::ValidationFlow flow(*board, family,
                                      bench::benchFlowOptions());
        validate::FlowReport report = flow.run();
        bool improved =
            report.tunedUbenchAvg < report.untunedUbenchAvg;
        all_improved = all_improved && improved;
        std::printf("%-9s %-14s %9.1f%% %9.1f%% %12llu %6u%s\n",
                    name, board->name,
                    100.0 * report.untunedUbenchAvg,
                    100.0 * report.tunedUbenchAvg,
                    static_cast<unsigned long long>(
                        report.race.experimentsUsed),
                    report.race.iterations,
                    improved ? "" : "  (NO IMPROVEMENT)");
        bench::jsonMetric(std::string(name) + " untuned error",
                          100.0 * report.untunedUbenchAvg);
        bench::jsonMetric(std::string(name) + " tuned error",
                          100.0 * report.tunedUbenchAvg);
        bench::jsonMetric(std::string(name) + " experiments",
                          static_cast<double>(
                              report.race.experimentsUsed));
    }
    bench::note("\nshape check: racing must improve on the "
                "public-information model in EVERY family; the "
                "interval family's residual error is the price of its "
                "abstraction.");
    bench::jsonMetric("all_families_improved", all_improved ? 1.0 : 0.0);
    bench::writeJson();
    // A smoke-sized budget truncates the race after a single
    // iteration, where the ranked best may trail the seed on the full
    // suite -- only a real budget makes the improvement shape a
    // pass/fail criterion.
    return all_improved || bench::smokeMode() ? 0 : 1;
}
