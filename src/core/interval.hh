/**
 * @file
 * Sniper-style interval core timing model -- the third tunable model
 * family, alongside the in-order and out-of-order accounting cores.
 *
 * Interval simulation (the analytical model behind Sniper) observes
 * that a balanced superscalar core sustains its dispatch width except
 * during *intervals* opened by miss events: a branch mispredict stalls
 * the front end until the branch resolves and the pipeline refills; a
 * long-latency load stalls dispatch when the reorder buffer fills
 * behind it, and independent misses inside the same ROB window overlap
 * (memory-level parallelism). This model walks the dynamic stream once
 * charging exactly those windows: dispatch-width base slots, front-end
 * bubbles (icache, mispredict), and ROB-bounded completion. Unlike the
 * OoO family it deliberately ignores issue-queue/LSQ capacity, FU
 * contention and store-buffer drain -- short-latency work is assumed
 * hidden inside the interval, which is precisely the interval-core
 * abstraction (and its abstraction gap).
 *
 * CoreParams knobs read: dispatch width, ROB size, the per-class
 * latency table, every branch-predictor parameter, the mispredict
 * penalty and taken-branch bubble, and the full cache hierarchy
 * configuration. The store-buffer, forwarding and divide-pipelining
 * knobs are deliberately ignored (and excluded from the interval
 * family's raced space).
 */

#ifndef RACEVAL_CORE_INTERVAL_HH
#define RACEVAL_CORE_INTERVAL_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/frontend.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "vm/trace.hh"

namespace raceval::core
{

/** Interval-analysis core model (dispatch intervals + penalty windows). */
class IntervalCore : public TimingModel
{
  public:
    explicit IntervalCore(const CoreParams &params);

    /**
     * Simulate one full trace from a clean machine state.
     *
     * @param source dynamic instruction stream (reset() is called).
     * @return run statistics (CPI etc.).
     */
    CoreStats run(vm::TraceSource &source) override;

    /** Packed replay of the whole trace (core/replay.hh);
     *  bit-identical to run(TraceSource&) over the same recording. */
    CoreStats run(const vm::PackedTrace &trace) override;

    /**
     * Test seam: replay the whole @p stream like run(), but route every
     * instruction -- including plain ALU -- through the generic step
     * body, so bit-identity of the tagged fast path is directly
     * checkable against the un-specialized accounting (instantiated
     * for vm::PackedStream and vm::SourceStream).
     */
    template <class Stream>
    CoreStats runGeneric(Stream &stream);

    /** @return the active configuration. */
    const CoreParams &params() const override { return cparams; }

  private:
    template <class Model, class Stream>
    friend CoreStats replayStream(Model &model, Stream &stream);

    CoreParams cparams;
    cache::MemoryHierarchy mem;
    branch::BranchUnit bp;

    // --- per-run interval state -----------------------------------------
    CoreStats runStats;
    FetchFrontEnd frontend;

    /**
     * Flat per-run interval cursors plus hoisted loop invariants (see
     * OooCore::StepState for the full rationale): the ROB ring cursor
     * wraps on increment instead of the old `seq % robEntries`
     * division, and the CoreParams fields the loop reads are copied
     * in by resetState().
     */
    struct StepState
    {
        uint64_t dispatchCycle = 0;
        uint64_t lastRetire = 0;
        uint32_t dispatchedThisCycle = 0;
        uint32_t robCur = 0; //!< ROB ring cursor (wrap on increment)
        // loop invariants hoisted from CoreParams / ring sizes
        uint32_t robSize = 1;
        uint32_t dispatchWidth = 1;
        uint32_t mispredictPenalty = 0;
        uint32_t takenBranchBubble = 0;
    };
    StepState st;

    std::vector<uint64_t> regReady;
    /** Completion-time ring of robEntries slots: dispatch of
     *  instruction i waits for instruction i - robEntries to complete,
     *  which is what turns an isolated long miss into a stall window
     *  and lets misses inside one window overlap. */
    std::vector<uint64_t> robFreeAt;

    void resetState();

    /** Reset machine state and start a fresh accounting run. */
    void beginRun();

    /** Close accounting (end cycle) and return the stats. */
    CoreStats finishRun();

    /**
     * Per-instruction accounting of the replay loop: classify once on
     * the precomputed 2-bit kind tag, then either take the minimal
     * plain-ALU fast path (no cache access, no predictor) or the
     * generic body. @tparam Profiled selects the step-cost-profiler
     * instantiation.
     */
    template <bool Profiled, class Stream>
    void step(const Stream &s);

    /** Dominant-case fast path: kind == OpKind::Alu only. */
    template <bool Profiled, class Stream>
    void stepAlu(const Stream &s);

    /** Generic body handling every kind. */
    template <bool Profiled, class Stream>
    void stepSlow(const Stream &s, isa::OpKind kind);
};

} // namespace raceval::core

#endif // RACEVAL_CORE_INTERVAL_HH
