#include "hw/detailed_ooo.hh"

#include <bit>
#include <deque>
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

constexpr uint64_t invalidSeq = ~0ull;

/** One in-flight instruction (ROB entry). */
struct RobEntry
{
    uint64_t seq = invalidSeq;
    OpClass cls = OpClass::Nop;
    uint8_t dst = isa::noReg;
    uint8_t src[3] = { isa::noReg, isa::noReg, isa::noReg };
    uint8_t numSrcs = 0;
    /** Producer sequence numbers for each source (invalidSeq = none). */
    uint64_t producer[3] = { invalidSeq, invalidSeq, invalidSeq };
    uint64_t memAddr = 0;
    unsigned memSize = 0;
    uint64_t pc = 0;
    bool issued = false;
    uint64_t completeAt = 0;
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    bool mispredict = false;
    bool taken = false;
    uint64_t nextPc = 0;
};

/** A retired store draining to the L1D. */
struct DrainEntry
{
    uint64_t addr = 0;
    unsigned size = 0;
    uint64_t pc = 0;
    uint64_t seq = 0;
    uint64_t drainDone = 0; //!< 0 while waiting for the port
};

} // namespace

core::CoreStats
DetailedOoO::rawRun(vm::TraceSource &source)
{
    const core::CoreParams &cp = hparams.core;

    cache::HierarchyParams hier = cp.mem;
    hier.timedPrefetch = true;
    hier.prefetchConsumesBandwidth = true;
    cache::MemoryHierarchy mem(hier, /*rng_seed=*/4243);
    branch::BranchUnit bp(cp.bp);
    core::ContentionModel fus(cp);

    source.reset();

    // --- machine state ----------------------------------------------------
    uint64_t cycle = 0;
    uint64_t fetch_stall_until = 0;
    uint64_t last_fetch_line = ~0ull;
    // A power-of-two ring, so a slot is a mask away; robEntries, not
    // the ring size, bounds the live window.
    std::vector<RobEntry> rob(std::bit_ceil(size_t{cp.robEntries}));
    const uint64_t rob_mask = rob.size() - 1;
    uint64_t rob_head = 0; //!< oldest live seq
    uint64_t rob_tail = 0; //!< next seq to allocate
    /** Unissued entries (the issue queue), oldest first. */
    std::vector<uint64_t> iq;
    iq.reserve(cp.iqEntries);
    /** Stores still in the ROB, oldest first. */
    std::deque<uint64_t> rob_stores;
    size_t lq_count = 0;
    size_t sq_count = 0;
    /** Latest writer (seq) of each architectural register. */
    std::vector<uint64_t> last_writer(isa::numIntRegs + isa::numFpRegs,
                                      invalidSeq);
    std::vector<uint64_t> mshr_busy(cp.mem.l1d.mshrs, 0);
    std::deque<DrainEntry> drain_queue;
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
    uint64_t pending_ready_at = 0;
    bool pending_seen = false;
    /** Dispatch is frozen behind this unresolved mispredicted branch. */
    uint64_t mispredict_block = invalidSeq;

    auto slot = [&rob, rob_mask](uint64_t seq) -> RobEntry & {
        return rob[seq & rob_mask];
    };

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

    while (have_pending || rob_head != rob_tail || !drain_queue.empty()) {
        bool l1d_port_used = false;

        // --- issue: wakeup/select over the issue queue, oldest first ---
        {
            unsigned issued_loads = 0;
            size_t kept = 0;
            for (uint64_t seq : iq) {
                iq[kept++] = seq; // stays queued unless it issues below
                RobEntry &e = slot(seq);

                bool ready = true;
                for (unsigned i = 0; i < e.numSrcs && ready; ++i) {
                    uint64_t p = e.producer[i];
                    if (p == invalidSeq)
                        continue;
                    const RobEntry &prod = slot(p);
                    if (prod.seq != p)
                        continue; // producer already retired
                    ready = prod.issued && prod.completeAt <= cycle;
                }
                if (!ready)
                    continue;
                if (!fus.canStartAt(e.cls, cycle))
                    continue; // all units of the pool busy

                if (e.isLoad) {
                    // One L1D port shared with store drains.
                    if (issued_loads >= cp.numLoadPorts)
                        continue;
                    uint64_t page = e.memAddr >> pageShift;
                    unsigned lat = 0;

                    // Search older un-drained stores for forwarding.
                    bool forwarded = false;
                    bool blocked = false;
                    uint64_t overlap_wait = 0;
                    for (uint64_t s : rob_stores) {
                        if (s >= seq)
                            break;
                        const RobEntry &st = slot(s);
                        if (e.memAddr + e.memSize <= st.memAddr
                            || st.memAddr + st.memSize <= e.memAddr)
                            continue;
                        if (!st.issued) {
                            blocked = true; // address unknown yet
                            break;
                        }
                        if (e.memAddr >= st.memAddr
                            && e.memAddr + e.memSize
                               <= st.memAddr + st.memSize)
                            forwarded = true;
                        else
                            blocked = true; // partial overlap in ROB
                    }
                    if (!blocked) {
                        for (const DrainEntry &d : drain_queue) {
                            if (e.memAddr + e.memSize <= d.addr
                                || d.addr + d.size <= e.memAddr)
                                continue;
                            if (e.memAddr >= d.addr
                                && e.memAddr + e.memSize
                                   <= d.addr + d.size) {
                                forwarded = true;
                            } else {
                                uint64_t at = d.drainDone
                                    ? d.drainDone : cycle + 1;
                                if (d.drainDone == 0)
                                    blocked = true;
                                if (at > overlap_wait)
                                    overlap_wait = at;
                            }
                        }
                    }
                    if (blocked)
                        continue; // retry next cycle

                    if (forwarded && overlap_wait == 0) {
                        lat = 1;
                    } else if (hparams.zeroPageReads
                               && !init_pages.contains(page)
                               && !stored_pages.contains(page)) {
                        if (zero_pages.insert(page))
                            lat = cp.mem.l1d.latency
                                + hparams.pageWalkPenalty;
                        else
                            lat = cp.mem.l1d.latency;
                    } else {
                        bool will_miss =
                            !mem.l1d().probe(mem.lineOf(e.memAddr));
                        size_t mshr = 0;
                        for (size_t i = 1; i < mshr_busy.size(); ++i) {
                            if (mshr_busy[i] < mshr_busy[mshr])
                                mshr = i;
                        }
                        if (will_miss && mshr_busy[mshr] > cycle)
                            continue; // no MSHR: stay in the queue
                        unsigned walk = 0;
                        if (touched_pages.insert(page))
                            walk = hparams.pageWalkPenalty;
                        cache::AccessResult res = mem.access(
                            e.pc, e.memAddr, false, false, cycle);
                        lat = res.latency + walk;
                        if (res.servedBy != cache::ServedBy::L1)
                            mshr_busy[mshr] = cycle + lat;
                        if (overlap_wait > cycle)
                            lat += static_cast<unsigned>(
                                overlap_wait - cycle)
                                + hparams.partialForwardPenalty;
                    }
                    e.completeAt = cycle + lat;
                    ++issued_loads;
                    l1d_port_used = true;
                    fus.reserve(e.cls, cycle);
                } else {
                    fus.reserve(e.cls, cycle);
                    e.completeAt = cycle + fus.latencyOf(e.cls);
                    if (e.isBranch && e.mispredict) {
                        uint64_t redirect =
                            e.completeAt + cp.mispredictPenalty;
                        if (redirect > fetch_stall_until)
                            fetch_stall_until = redirect;
                        last_fetch_line = ~0ull;
                        if (mispredict_block == e.seq)
                            mispredict_block = invalidSeq;
                    }
                }
                e.issued = true;
                --kept;
            }
            iq.resize(kept);
        }

        // --- retire: oldest done entries, commitWidth per cycle --------
        {
            unsigned retired = 0;
            while (rob_head != rob_tail && retired < cp.commitWidth) {
                RobEntry &e = slot(rob_head);
                if (!e.issued || e.completeAt > cycle)
                    break;
                if (e.isStore) {
                    drain_queue.push_back(DrainEntry{
                        e.memAddr, e.memSize, e.pc, e.seq, 0});
                    rob_stores.pop_front();
                    uint64_t page = e.memAddr >> pageShift;
                    stored_pages.insert(page);
                    touched_pages.insert(page);
                    // sq_count released when the drain completes.
                } else if (e.isLoad) {
                    --lq_count;
                }
                e.seq = invalidSeq;
                ++rob_head;
                ++retired;
            }
        }

        // --- store drain through the shared L1D port -------------------
        while (!drain_queue.empty() && drain_queue.front().drainDone != 0
               && drain_queue.front().drainDone <= cycle) {
            drain_queue.pop_front();
            RV_ASSERT(sq_count > 0, "sq underflow");
            --sq_count;
        }
        if (!l1d_port_used && !drain_queue.empty()
            && drain_queue.front().drainDone == 0
            && drain_busy_until <= cycle) {
            DrainEntry &head = drain_queue.front();
            cache::AccessResult res =
                mem.access(head.pc, head.addr, true, false, cycle);
            head.drainDone = cycle + res.latency;
            drain_busy_until = head.drainDone;
        }

        // --- dispatch: in-order, gated by window resources --------------
        {
            unsigned dispatched = 0;
            while (have_pending && dispatched < cp.dispatchWidth) {
                if (mispredict_block != invalidSeq)
                    break; // waiting for a mispredicted branch to resolve
                if (fetch_stall_until > cycle)
                    break; // front end still refilling after a redirect
                if (rob_tail - rob_head >= cp.robEntries)
                    break; // ROB full
                if (iq.size() >= cp.iqEntries)
                    break;
                const isa::DecodedInst &inst = pending.inst;
                bool is_load = inst.cls == OpClass::Load;
                bool is_store = inst.cls == OpClass::Store;
                if (is_load && lq_count >= cp.lqEntries)
                    break;
                if (is_store && sq_count >= cp.sqEntries)
                    break;
                if (!pending_seen) {
                    pending_ready_at = compute_fetch(pending);
                    pending_seen = true;
                }
                if (pending_ready_at > cycle)
                    break;

                RobEntry &e = slot(rob_tail);
                e = RobEntry{};
                e.seq = rob_tail;
                e.cls = inst.cls;
                e.dst = inst.dst;
                e.numSrcs = inst.numSrcs;
                for (unsigned i = 0; i < inst.numSrcs; ++i) {
                    e.src[i] = inst.src[i];
                    e.producer[i] = last_writer[inst.src[i]];
                }
                e.memAddr = pending.memAddr;
                e.memSize = inst.memSize;
                e.pc = pending.pc;
                e.isLoad = is_load;
                e.isStore = is_store;
                e.isBranch = inst.isBranch;
                e.taken = pending.taken;
                e.nextPc = pending.nextPc;
                if (inst.isBranch)
                    e.mispredict = bp.predict(pending);
                if (inst.hasDst())
                    last_writer[inst.dst] = rob_tail;
                iq.push_back(rob_tail);
                if (is_load)
                    ++lq_count;
                if (is_store) {
                    rob_stores.push_back(rob_tail);
                    ++sq_count;
                }
                ++rob_tail;
                ++dispatched;
                ++stats.instructions;

                have_pending = source.next(pending);
                pending_seen = false;

                if (e.isBranch && e.mispredict) {
                    // Younger instructions are wrong-path until this
                    // branch resolves; freeze dispatch behind it.
                    mispredict_block = e.seq;
                    break;
                }
            }
        }

        ++cycle;
        RV_ASSERT(cycle < (1ull << 42), "detailed ooo model runaway");
    }

    stats.cycles = cycle > drain_busy_until ? cycle : drain_busy_until;
    stats.branch = bp.stats();
    stats.l1iMisses = mem.l1i().stats().misses;
    stats.l1dAccesses = mem.l1d().stats().accesses;
    stats.l1dMisses = mem.l1d().stats().misses;
    stats.l2Misses = mem.l2().stats().misses;
    stats.dramReads = mem.dram().readCount();
    return stats;
}

} // namespace raceval::hw
