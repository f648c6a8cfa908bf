/**
 * @file
 * Packed-trace replay through a family's segment interface.
 *
 * Every family exposes beginRun() / runSegment() / finishRun(); a
 * packed replay is one runSegment() pass over the whole trace. The
 * timing recurrence is sequential -- each instruction consumes the
 * state the previous one left -- so a single experiment does not
 * split across threads. Parallelism comes from running independent
 * (config, trace) experiments side by side: the engine dispatches
 * every fresh evaluation of a racing step as its own thread-pool
 * item.
 *
 * runSegment() may still be called repeatedly, and a core copied
 * mid-run continues from the same state; tests/test_replay.cc checks
 * that each family's copy constructor carries all of it.
 */

#ifndef RACEVAL_CORE_REPLAY_HH
#define RACEVAL_CORE_REPLAY_HH

#include <cstdint>

#include "core/stats.hh"
#include "obs/trace.hh"
#include "vm/packed_trace.hh"

namespace raceval::core
{

/** Replay a packed trace from a clean machine state in one pass. */
template <class Model>
CoreStats
runPackedTrace(Model &model, const vm::PackedTrace &trace)
{
    RV_SPAN("replay.pass", trace.instCount());
    vm::PackedStream stream(trace);
    model.beginRun();
    model.runSegment(stream, ~uint64_t{0});
    return model.finishRun();
}

} // namespace raceval::core

#endif // RACEVAL_CORE_REPLAY_HH
