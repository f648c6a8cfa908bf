#include "core/interval.hh"

#include "common/log.hh"
#include "core/replay.hh"
#include "obs/step_profiler.hh"
#include "obs/trace.hh"

namespace raceval::core
{

using isa::OpClass;
using isa::OpKind;

IntervalCore::IntervalCore(const CoreParams &params)
    : cparams(params), mem(params.mem), bp(params.bp)
{
    cparams.validate();
    regReady.assign(isa::numIntRegs + isa::numFpRegs, 0);
    robFreeAt.assign(cparams.robEntries, 0);
    resetState();
}

void
IntervalCore::resetState()
{
    mem.reset();
    bp.reset();
    frontend.reset();
    std::fill(regReady.begin(), regReady.end(), 0);
    std::fill(robFreeAt.begin(), robFreeAt.end(), 0);

    st = StepState{};
    st.robSize = static_cast<uint32_t>(robFreeAt.size());
    st.dispatchWidth = cparams.dispatchWidth;
    st.mispredictPenalty = cparams.mispredictPenalty;
    st.takenBranchBubble = cparams.takenBranchBubble;
}

void
IntervalCore::beginRun()
{
    resetState();
    runStats = CoreStats{};
}

/**
 * Plain-ALU fast path: dispatch gating, readiness, table latency,
 * monotone retire -- no cache access, no predictor. Field-for-field
 * the ALU slice of stepSlow.
 */
template <bool Profiled, class Stream>
void
IntervalCore::stepAlu(const Stream &s)
{
    obs::StepTimer<Profiled> timer(obs::stepFamilyInterval);

    ++runStats.instructions;
    timer.phase(obs::StepPhase::Fetch);
    frontend.fetch(mem, cparams, s.pc(), st.dispatchCycle);

    timer.phase(obs::StepPhase::Dispatch);
    uint64_t dready = st.dispatchCycle > frontend.readyAt
        ? st.dispatchCycle : frontend.readyAt;
    uint64_t rob_free = robFreeAt[st.robCur];
    if (rob_free > dready)
        dready = rob_free;
    if (dready > st.dispatchCycle) {
        st.dispatchCycle = dready;
        st.dispatchedThisCycle = 0;
    }

    timer.phase(obs::StepPhase::Issue);
    uint64_t ready = st.dispatchCycle;
    for (unsigned i = 0; i < s.srcCount(); ++i) {
        uint64_t at = regReady[s.srcReg(i)];
        if (at > ready)
            ready = at;
    }
    uint64_t complete =
        ready + cparams.latency[static_cast<size_t>(s.cls())];

    timer.phase(obs::StepPhase::Retire);
    uint64_t retire =
        complete > st.lastRetire ? complete : st.lastRetire;
    robFreeAt[st.robCur] = retire;
    if (++st.robCur == st.robSize)
        st.robCur = 0;
    st.lastRetire = retire;

    if (s.hasDst())
        regReady[s.dstReg()] = complete;

    if (++st.dispatchedThisCycle >= st.dispatchWidth) {
        ++st.dispatchCycle;
        st.dispatchedThisCycle = 0;
    }
}

template <bool Profiled, class Stream>
void
IntervalCore::stepSlow(const Stream &s, OpKind kind)
{
    obs::StepTimer<Profiled> timer(obs::stepFamilyInterval);

    ++runStats.instructions;
    timer.phase(obs::StepPhase::Fetch);
    frontend.fetch(mem, cparams, s.pc(), st.dispatchCycle);

    OpClass cls = s.cls();

    // --- dispatch: width per cycle, gated only by the front end
    // and the ROB window. A long-latency instruction opens a stall
    // interval exactly when the window fills behind it; younger
    // misses inside the same window overlap for free (MLP).
    timer.phase(obs::StepPhase::Dispatch);
    uint64_t dready = st.dispatchCycle > frontend.readyAt
        ? st.dispatchCycle : frontend.readyAt;
    uint64_t rob_free = robFreeAt[st.robCur];
    if (rob_free > dready)
        dready = rob_free;
    if (dready > st.dispatchCycle) {
        st.dispatchCycle = dready;
        st.dispatchedThisCycle = 0;
    }

    // --- completion: true dependencies plus the class latency
    // (read straight off the table). No issue-queue, LSQ, FU or
    // store-drain modeling: inside an interval the core is assumed
    // to sustain full width.
    timer.phase(obs::StepPhase::Issue);
    uint64_t ready = st.dispatchCycle;
    for (unsigned i = 0; i < s.srcCount(); ++i) {
        uint64_t at = regReady[s.srcReg(i)];
        if (at > ready)
            ready = at;
    }
    uint64_t complete =
        ready + cparams.latency[static_cast<size_t>(cls)];

    if (kind == OpKind::Load) {
        timer.phase(obs::StepPhase::Mem);
        cache::AccessResult res =
            mem.access(s.pc(), s.memAddr(), false, false, ready);
        complete = ready + res.latency;
    } else if (kind == OpKind::Store) {
        timer.phase(obs::StepPhase::Mem);
        // The cache sees the store (state evolves) but drain cost
        // is assumed hidden behind the window.
        mem.access(s.pc(), s.memAddr(), true, false, ready);
    }

    if (kind == OpKind::Branch) {
        timer.phase(obs::StepPhase::Branch);
        if (bp.predict(s.pc(), cls, s.taken(), s.nextPc())) {
            // The penalty window: resolve + pipeline refill.
            frontend.redirect(complete + st.mispredictPenalty);
        } else if (s.taken() && st.takenBranchBubble) {
            frontend.stallUntil(st.dispatchCycle
                                + st.takenBranchBubble);
        }
    }

    // In-order completion ordering for the ROB ring keeps the
    // window accounting monotone.
    timer.phase(obs::StepPhase::Retire);
    uint64_t retire =
        complete > st.lastRetire ? complete : st.lastRetire;
    robFreeAt[st.robCur] = retire;
    if (++st.robCur == st.robSize)
        st.robCur = 0;
    st.lastRetire = retire;

    if (s.hasDst())
        regReady[s.dstReg()] = complete;

    if (++st.dispatchedThisCycle >= st.dispatchWidth) {
        ++st.dispatchCycle;
        st.dispatchedThisCycle = 0;
    }
}

template <bool Profiled, class Stream>
void
IntervalCore::step(const Stream &s)
{
    OpKind kind = s.kind();
    if (kind == OpKind::Alu) [[likely]] {
        stepAlu<Profiled>(s);
        return;
    }
    stepSlow<Profiled>(s, kind);
}

template <class Stream>
CoreStats
IntervalCore::runGeneric(Stream &s)
{
    beginRun();
    while (s.next())
        stepSlow<false>(s, s.kind());
    return finishRun();
}

template CoreStats
IntervalCore::runGeneric<vm::PackedStream>(vm::PackedStream &);
template CoreStats
IntervalCore::runGeneric<vm::SourceStream>(vm::SourceStream &);

CoreStats
IntervalCore::finishRun()
{
    uint64_t end = st.lastRetire > st.dispatchCycle ? st.lastRetire
                                                    : st.dispatchCycle;
    runStats.cycles = end;
    runStats.branch = bp.stats();
    runStats.l1iMisses = mem.l1i().stats().misses;
    runStats.l1dAccesses = mem.l1d().stats().accesses;
    runStats.l1dMisses = mem.l1d().stats().misses;
    runStats.l2Misses = mem.l2().stats().misses;
    runStats.dramReads = mem.dram().readCount();
    return runStats;
}

CoreStats
IntervalCore::run(vm::TraceSource &source)
{
    source.reset();
    vm::SourceStream stream(source);
    return replayStream(*this, stream);
}

CoreStats
IntervalCore::run(const vm::PackedTrace &trace)
{
    RV_SPAN("replay.pass", trace.instCount());
    vm::PackedStream stream(trace);
    return replayStream(*this, stream);
}

} // namespace raceval::core
