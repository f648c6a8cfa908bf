/**
 * @file
 * Abstract in-order core timing model (the "Sniper-ARM in-order model"
 * validated against the Cortex-A53 in the paper).
 *
 * Like Sniper, this is cycle *accounting*, not cycle-by-cycle
 * simulation: the model walks the dynamic instruction stream once,
 * carrying per-register readiness, functional-unit reservations, store
 * buffer and MSHR occupancy, and front-end (icache / branch) stall
 * state. That keeps it an order of magnitude faster than the detailed
 * hardware model while modeling every first-order contention effect.
 */

#ifndef RACEVAL_CORE_INORDER_HH
#define RACEVAL_CORE_INORDER_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/contention.hh"
#include "core/frontend.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "vm/trace.hh"

namespace raceval::core
{

/**
 * Dual-issue (configurable width) in-order, stall-on-use pipeline model
 * with a store buffer, limited hit-under-miss (MSHRs) and
 * store-to-load forwarding.
 */
class InOrderCore : public TimingModel
{
  public:
    explicit InOrderCore(const CoreParams &params);

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

    /** @return the active configuration. */
    const CoreParams &params() const override { return cparams; }

  private:
    template <class Model, class Stream>
    friend CoreStats replayStream(Model &model, Stream &stream);

    CoreParams cparams;
    cache::MemoryHierarchy mem;
    branch::BranchUnit bp;
    ContentionModel contention;

    // --- per-run scoreboard state ---------------------------------------
    CoreStats runStats;
    FetchFrontEnd frontend;

    /**
     * Flat per-run pipeline cursors plus hoisted loop invariants (see
     * OooCore::StepState for the full rationale): the forwarding ring
     * cursor wraps on increment instead of a modulo, and the
     * CoreParams fields the per-instruction loop reads are copied in
     * by resetState().
     */
    struct StepState
    {
        uint64_t cycle = 0;
        uint64_t maxDone = 0;
        uint64_t lastDrain = 0;
        /** Latest drainAt of any buffered store; once <= now the
         *  whole forwarding scan is dead work and is skipped. */
        uint64_t pendingStoreMaxDrain = 0;
        uint32_t issuedThisCycle = 0;
        uint32_t pendingStoreHead = 0;
        /** How many ring slots have ever been written this run; the
         *  forwarding scan only visits [0, pendingStoreLive). */
        uint32_t pendingStoreLive = 0;
        // loop invariants hoisted from CoreParams / ring sizes
        uint32_t pendingStoreSize = 1;
        uint32_t dispatchWidth = 1;
        uint32_t mispredictPenalty = 0;
        uint32_t takenBranchBubble = 0;
        uint32_t forwardLatency = 0;
        uint8_t forwarding = 0;
    };
    StepState st;

    std::vector<uint64_t> regReady;
    std::vector<uint64_t> mshrFree;
    std::vector<uint64_t> storeBufFree;

    /** Recent stores for forwarding checks. */
    struct PendingStore
    {
        uint64_t addr = 0;
        unsigned size = 0;
        uint64_t drainAt = 0;
    };
    std::vector<PendingStore> pendingStores;

    void resetState();
    void advanceSlot();

    /** Reset machine state and start a fresh accounting run. */
    void beginRun();

    /** Close accounting (drains, end cycle) and return the stats. */
    CoreStats finishRun();

    /**
     * Per-instruction accounting of the replay loop: fetch, issue and
     * retire are shared by every kind; load / store / branch work
     * runs in stepNonAlu, which plain ALU ops (the precomputed 2-bit
     * kind tag) never enter.
     * @tparam Profiled selects the step-cost-profiler instantiation.
     */
    template <bool Profiled, class Stream>
    void step(const Stream &s);

    /** Memory / branch arm of step(); @return the completion time
     *  that replaces the FU-only @p done. */
    template <class Timer, class Stream>
    uint64_t stepNonAlu(const Stream &s, isa::OpKind kind,
                        uint64_t done, Timer &timer);

    /** Stall issue until at least target (resets the slot counter). */
    void stallUntil(uint64_t target);

    /** @return forwarding hit for a load fully covered by a store
     *  still sitting in the store buffer at cycle now. */
    bool forwardedFromStore(uint64_t addr, unsigned size,
                            uint64_t now) const;
};

} // namespace raceval::core

#endif // RACEVAL_CORE_INORDER_HH
