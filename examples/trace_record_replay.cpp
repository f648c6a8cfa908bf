/**
 * @file
 * Record-once / replay-many (the paper's trace workflow): record a
 * benchmark's dynamic stream once with the functional front-end ("on
 * the ARM board") into a packed trace, then replay it into two
 * different core configurations ("on the x86 simulation servers")
 * without re-executing the program. The second half shows the same
 * discipline through the evaluation engine: an EvalEngine records each
 * instance once and serves every (model, instance) request as a cached
 * replay.
 */

#include <cstdio>
#include <string_view>

#include "core/inorder.hh"
#include "engine/engine.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"

using namespace raceval;

int
main(int argc, char **argv)
{
    // --smoke (ctest smoke suite) is accepted but changes nothing:
    // record + both replays finish in well under a second.
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) != "--smoke") {
            std::printf("usage: %s [--smoke]\nRecord a trace once, "
                        "replay it into two core configs.\n",
                        argv[0]);
            return std::string_view(argv[i]) == "--help" ||
                   std::string_view(argv[i]) == "-h" ? 0 : 2;
        }
    }

    isa::Program prog = ubench::build(*ubench::find("CCh"));
    vm::FunctionalCore recorder(prog);
    vm::PackedTrace trace = vm::PackedTrace::build(prog, recorder);
    std::printf("trace: %llu instructions, program '%s'\n",
                static_cast<unsigned long long>(trace.instCount()),
                trace.name().c_str());

    vm::PackedCursor replay(trace);
    for (unsigned penalty : {4u, 12u}) {
        core::CoreParams p = core::publicInfoA53();
        p.mispredictPenalty = penalty;
        core::InOrderCore sim(p);
        core::CoreStats stats = sim.run(replay);
        std::printf("mispredict penalty %2u -> CPI %.3f\n", penalty,
                    stats.cpi());
    }

    // The same workflow, managed: the engine's TraceBank records each
    // registered instance once; evaluateModel() replays and caches.
    engine::EvalEngine eng(core::ModelFamily::InOrder);
    size_t instance = eng.addInstance(prog);
    for (unsigned penalty : {4u, 12u, 4u /* cache hit */}) {
        core::CoreParams p = core::publicInfoA53();
        p.mispredictPenalty = penalty;
        std::printf("engine: penalty %2u -> CPI %.3f\n", penalty,
                    eng.evaluateModel(p, instance).simCpi);
    }
    std::printf("%s\n", eng.stats().summary().c_str());
    return 0;
}
