#include "hw/detailed_inorder.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "core/contention.hh"
#include "hw/page_set.hh"

namespace raceval::hw
{

using isa::OpClass;

namespace
{

/** A wake-up time no cycle reaches: only a store drain can release. */
constexpr uint64_t never = std::numeric_limits<uint64_t>::max();

/** A store sitting in (or draining from) the store buffer. */
struct StoreEntry
{
    uint64_t addr = 0;
    unsigned size = 0;
    uint64_t readyAt = 0;   //!< earliest drain start (issue cycle + 1)
    uint64_t drainDone = 0; //!< 0 while not yet draining
};

} // namespace

core::CoreStats
DetailedInOrder::rawRun(vm::TraceSource &source)
{
    const core::CoreParams &cp = hparams.core;

    // The hardware models memory with timed prefetch and bandwidth-
    // consuming prefetch fills -- detail the abstract model elides.
    cache::HierarchyParams hier = cp.mem;
    hier.timedPrefetch = true;
    hier.prefetchConsumesBandwidth = true;
    cache::MemoryHierarchy mem(hier, /*rng_seed=*/4242);
    branch::BranchUnit bp(cp.bp);
    core::ContentionModel fus(cp);

    source.reset();

    // --- machine state ----------------------------------------------------
    uint64_t cycle = 0;
    uint64_t fetch_stall_until = 0;
    uint64_t last_fetch_line = ~0ull;
    uint64_t max_event = 0;
    std::vector<uint64_t> reg_ready(isa::numIntRegs + isa::numFpRegs, 0);
    std::vector<uint64_t> mshr_busy(cp.mem.l1d.mshrs, 0);
    std::deque<StoreEntry> store_buffer;
    uint64_t drain_busy_until = 0;
    PageSet touched_pages;
    PageSet stored_pages;
    PageSet zero_pages;
    PageSet init_pages;

    if (const isa::Program *prog = source.program()) {
        for (const auto &segment : prog->data) {
            uint64_t first = segment.base >> pageShift;
            uint64_t last = (segment.base + segment.bytes.size())
                >> pageShift;
            for (uint64_t page = first; page <= last; ++page)
                init_pages.insert(page);
        }
    }

    core::CoreStats stats;
    vm::DynInst pending;
    bool have_pending = source.next(pending);
    // Per-pending earliest-issue bound (front end, MSHR retry), computed
    // lazily once per instruction.
    uint64_t pending_ready_at = 0;
    bool pending_seen = false;

    auto compute_fetch = [&](const vm::DynInst &dyn) {
        uint64_t line = mem.lineOf(dyn.pc);
        uint64_t ready = fetch_stall_until;
        if (line != last_fetch_line) {
            last_fetch_line = line;
            cache::AccessResult fetch =
                mem.access(dyn.pc, dyn.pc, false, true, cycle);
            if (fetch.servedBy != cache::ServedBy::L1) {
                uint64_t bubble = fetch.latency - cp.mem.l1i.latency;
                if (cycle + bubble > ready)
                    ready = cycle + bubble;
            }
        }
        return ready;
    };

    // Drain one store per free-port cycle, serialized at the L1D.
    // @return true when an entry retired or started to drain.
    auto drain_stores = [&](bool port_free) {
        bool moved = false;
        // Retire fully drained entries.
        while (!store_buffer.empty()
               && store_buffer.front().drainDone != 0
               && store_buffer.front().drainDone <= cycle) {
            if (store_buffer.front().drainDone > max_event)
                max_event = store_buffer.front().drainDone;
            store_buffer.pop_front();
            moved = true;
        }
        if (!port_free || store_buffer.empty())
            return moved;
        StoreEntry &head = store_buffer.front();
        if (head.drainDone != 0 || head.readyAt > cycle
            || drain_busy_until > cycle)
            return moved;
        cache::AccessResult res =
            mem.access(head.addr, head.addr, true, false, cycle);
        head.drainDone = cycle + res.latency;
        drain_busy_until = head.drainDone;
        return true;
    };

    // Event skipping: a cycle in which the pending instruction stalls
    // and the store buffer neither retires nor starts a drain changes no
    // state, so the clock jumps straight to the first cycle at which the
    // stall can clear (`wake`) or the store buffer moves.
    while (have_pending || !store_buffer.empty()) {
        bool l1d_port_used = false;
        unsigned issued = 0;
        uint64_t wake = have_pending ? cycle + 1 : never;

        while (have_pending && issued < cp.dispatchWidth) {
            const vm::DynInst &dyn = pending;
            const isa::DecodedInst &inst = dyn.inst;
            OpClass cls = inst.cls;

            if (!pending_seen) {
                pending_ready_at = compute_fetch(dyn);
                pending_seen = true;
            }
            if (pending_ready_at > cycle) {
                wake = pending_ready_at;
                break; // front end has not delivered it yet
            }

            // In-order stall-on-use: operands must be ready now.
            uint64_t operands_at = 0;
            for (unsigned i = 0; i < inst.numSrcs; ++i)
                operands_at = std::max(operands_at, reg_ready[inst.src[i]]);
            if (operands_at > cycle) {
                wake = operands_at;
                break;
            }

            // Structural hazard: a unit of the pool must be free now
            // (peek before reserving so a stalled retry does not book
            // the unit twice).
            if (!fus.canStartAt(cls, cycle)) {
                wake = std::max(cycle + 1, fus.earliestFree(cls));
                break;
            }

            uint64_t done = cycle + fus.latencyOf(cls);

            if (cls == OpClass::Load) {
                uint64_t page = dyn.memAddr >> pageShift;
                unsigned lat = 0;
                bool blocked = false;

                // Store-buffer interactions first.
                bool forwarded = false;
                uint64_t overlap_wait = 0;
                for (const StoreEntry &st : store_buffer) {
                    if (dyn.memAddr + inst.memSize <= st.addr
                        || st.addr + st.size <= dyn.memAddr)
                        continue; // disjoint
                    if (dyn.memAddr >= st.addr
                        && dyn.memAddr + inst.memSize
                           <= st.addr + st.size) {
                        forwarded = true;
                    } else {
                        // Partial overlap: wait for the drain, replay.
                        uint64_t done_at = st.drainDone ? st.drainDone
                            : cycle + 1; // not draining yet: retry later
                        if (st.drainDone == 0)
                            blocked = true;
                        if (done_at > overlap_wait)
                            overlap_wait = done_at;
                    }
                }
                if (blocked) {
                    wake = never;
                    break; // re-attempt once the store starts draining
                }

                if (forwarded && overlap_wait == 0) {
                    lat = 1; // store-buffer bypass
                } else if (hparams.zeroPageReads
                           && !init_pages.contains(page)
                           && !stored_pages.contains(page)) {
                    // Read of an OS page never written: the zero page.
                    if (zero_pages.insert(page))
                        lat = cp.mem.l1d.latency + hparams.pageWalkPenalty;
                    else
                        lat = cp.mem.l1d.latency;
                } else {
                    // MSHR availability must be checked *before* the
                    // access mutates cache state; a blocked load retries
                    // the whole lookup once an MSHR frees.
                    bool will_miss =
                        !mem.l1d().probe(mem.lineOf(dyn.memAddr));
                    size_t slot = 0;
                    for (size_t i = 1; i < mshr_busy.size(); ++i) {
                        if (mshr_busy[i] < mshr_busy[slot])
                            slot = i;
                    }
                    if (will_miss && mshr_busy[slot] > cycle) {
                        pending_ready_at = mshr_busy[slot];
                        wake = pending_ready_at;
                        break; // pipe blocks: all MSHRs in use
                    }
                    unsigned walk = 0;
                    if (touched_pages.insert(page))
                        walk = hparams.pageWalkPenalty;
                    cache::AccessResult res =
                        mem.access(dyn.pc, dyn.memAddr, false, false,
                                   cycle);
                    lat = res.latency + walk;
                    if (res.servedBy != cache::ServedBy::L1)
                        mshr_busy[slot] = cycle + lat;
                    if (overlap_wait > cycle)
                        lat += static_cast<unsigned>(overlap_wait - cycle)
                            + hparams.partialForwardPenalty;
                }
                done = cycle + lat;
                l1d_port_used = true;
                fus.reserve(cls, cycle);
            } else if (cls == OpClass::Store) {
                if (store_buffer.size() >= cp.storeBufferEntries) {
                    wake = never;
                    break; // buffer full: stall until an entry retires
                }
                fus.reserve(cls, cycle);
                store_buffer.push_back(
                    StoreEntry{dyn.memAddr, inst.memSize, cycle + 1, 0});
                uint64_t page = dyn.memAddr >> pageShift;
                stored_pages.insert(page);
                touched_pages.insert(page);
            } else if (inst.isBranch) {
                fus.reserve(cls, cycle);
                bool mispredict = bp.predict(dyn);
                if (mispredict) {
                    uint64_t redirect = done + cp.mispredictPenalty;
                    if (redirect > fetch_stall_until)
                        fetch_stall_until = redirect;
                    last_fetch_line = ~0ull;
                } else if (dyn.taken && cp.takenBranchBubble) {
                    uint64_t bubble = cycle + cp.takenBranchBubble;
                    if (bubble > fetch_stall_until)
                        fetch_stall_until = bubble;
                }
            } else {
                fus.reserve(cls, cycle);
            }

            if (inst.hasDst())
                reg_ready[inst.dst] = done;
            if (done > max_event)
                max_event = done;
            ++stats.instructions;
            ++issued;

            have_pending = source.next(pending);
            pending_seen = false;
            wake = have_pending ? cycle + 1 : never;

            // A branch opens a new issue group, so a group holds at
            // most one.
            if (have_pending && pending.inst.isBranch)
                break;
        }

        // A stall on the store buffer may clear once the buffer moves.
        if (drain_stores(!l1d_port_used) && wake == never)
            wake = cycle + 1;

        if (!have_pending && store_buffer.empty()) {
            ++cycle;
            break;
        }
        // The store buffer next moves when its head retires or, not yet
        // draining, may start to.
        uint64_t drain_at = never;
        if (!store_buffer.empty()) {
            const StoreEntry &head = store_buffer.front();
            drain_at = head.drainDone != 0
                ? head.drainDone
                : std::max(head.readyAt, drain_busy_until);
        }
        uint64_t next = std::min(wake, drain_at);
        RV_ASSERT(next != never, "detailed in-order model deadlock");
        cycle = std::max(cycle + 1, next);
    }

    uint64_t end = cycle > max_event ? cycle : max_event;
    if (drain_busy_until > end)
        end = drain_busy_until;
    stats.cycles = end;
    stats.branch = bp.stats();
    stats.l1iMisses = mem.l1i().stats().misses;
    stats.l1dAccesses = mem.l1d().stats().accesses;
    stats.l1dMisses = mem.l1d().stats().misses;
    stats.l2Misses = mem.l2().stats().misses;
    stats.dramReads = mem.dram().readCount();
    return stats;
}

} // namespace raceval::hw
