/**
 * @file
 * The one replay loop every timing family runs.
 *
 * A replay is one pass over a whole dynamic stream from a clean
 * machine state: reset, step every instruction, close the
 * accounting. The timing recurrence is sequential -- each
 * instruction consumes the state the previous one left -- so a single
 * experiment does not split across threads. Parallelism comes from
 * running independent (config, trace) experiments side by side: the
 * engine dispatches every fresh evaluation of a racing step as its
 * own thread-pool item.
 *
 * Both run() overloads of each family call replayStream, the packed
 * one over a vm::PackedStream and the generic one over a
 * vm::SourceStream, so the two paths share one loop body and are
 * bit-identical by construction. A family befriends replayStream and
 * keeps beginRun(), step<Profiled>() and finishRun() private.
 */

#ifndef RACEVAL_CORE_REPLAY_HH
#define RACEVAL_CORE_REPLAY_HH

#include "core/stats.hh"
#include "obs/step_profiler.hh"

namespace raceval::core
{

/**
 * Replay @p stream through @p model from a clean machine state. The
 * step-cost profiler's instantiation is picked once per run.
 */
template <class Model, class Stream>
CoreStats
replayStream(Model &model, Stream &stream)
{
    model.beginRun();
    if (obs::stepProfilingEnabled()) {
        while (stream.next())
            model.template step<true>(stream);
    } else {
        while (stream.next())
            model.template step<false>(stream);
    }
    return model.finishRun();
}

} // namespace raceval::core

#endif // RACEVAL_CORE_REPLAY_HH
