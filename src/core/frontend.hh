/**
 * @file
 * Shared fetch front-end accounting for the abstract core models.
 *
 * Every family (in-order, OoO, interval) models the front end the same
 * way: a pipelined fetch engine that hides L1I-hit latency, bubbles
 * for the beyond-L1 cycles of an icache miss, restarts after a branch
 * mispredict, and optionally bubbles after a correctly predicted taken
 * branch. Keeping that logic in one place means a fetch-model fix can
 * never silently diverge between families.
 */

#ifndef RACEVAL_CORE_FRONTEND_HH
#define RACEVAL_CORE_FRONTEND_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "core/params.hh"

namespace raceval::core
{

/** Fetch-bubble state of one running core model. */
struct FetchFrontEnd
{
    /** Earliest cycle fetch can deliver the next instruction. */
    uint64_t readyAt = 0;
    /** Last icache line fetched (one access per line). */
    uint64_t lastLine = ~0ull;

    void
    reset()
    {
        readyAt = 0;
        lastLine = ~0ull;
    }

    /**
     * Account the icache fetch of one instruction.
     *
     * A pipelined front end hides hit latency; only the beyond-L1
     * cycles of a miss show up as a fetch bubble.
     *
     * @param mem the core's memory hierarchy (L1I state evolves).
     * @param params the core configuration (L1I hit latency).
     * @param pc instruction address.
     * @param now the cycle fetch is accounted at.
     */
    void
    fetch(cache::MemoryHierarchy &mem, const CoreParams &params,
          uint64_t pc, uint64_t now)
    {
        uint64_t line = mem.lineOf(pc);
        if (line == lastLine)
            return;
        lastLine = line;
        cache::AccessResult res = mem.access(pc, pc, false, true, now);
        if (res.servedBy != cache::ServedBy::L1) {
            uint64_t bubble = res.latency - params.mem.l1i.latency;
            if (now + bubble > readyAt)
                readyAt = now + bubble;
        }
    }

    /** Restart fetch at @p at (branch mispredict recovery). */
    void
    redirect(uint64_t at)
    {
        if (at > readyAt)
            readyAt = at;
        lastLine = ~0ull;
    }

    /** Stall fetch until @p until (taken-branch bubble). */
    void
    stallUntil(uint64_t until)
    {
        if (until > readyAt)
            readyAt = until;
    }
};

} // namespace raceval::core

#endif // RACEVAL_CORE_FRONTEND_HH
