/**
 * @file
 * The configuration surface of the abstract core timing models -- the
 * reproduction's equivalent of Sniper's "couple hundred configuration
 * parameters", of which the validation flow exposes the undisclosed
 * subset to the racing tuner (paper §IV-A).
 */

#ifndef RACEVAL_CORE_PARAMS_HH
#define RACEVAL_CORE_PARAMS_HH

#include <array>
#include <cstdint>
#include <string>

#include "branch/predictor.hh"
#include "cache/params.hh"
#include "isa/opcodes.hh"

namespace raceval::core
{

/** Functional-unit pools instructions contend for. */
enum class FuPool : uint8_t
{
    IntAlu,   //!< simple integer pipes
    IntMul,   //!< multi-cycle integer (mul/div)
    FpSimd,   //!< FP/ASIMD pipes
    Load,     //!< load AGU/port
    Store,    //!< store AGU/port
    Branch,   //!< branch resolution pipe
    NumPools
};

constexpr size_t numFuPools = static_cast<size_t>(FuPool::NumPools);

/** @return the pool a timing class executes on. */
FuPool poolOf(isa::OpClass cls);

/** Per-class execution latencies (cycles from issue to result). */
using LatencyTable = std::array<unsigned, isa::numOpClasses>;

/** @return plausible textbook defaults (the "public info" baseline). */
LatencyTable defaultLatencies();

/**
 * All knobs of the abstract in-order and out-of-order core models.
 * The same struct configures both; the out-of-order model additionally
 * reads the window/queue fields.
 */
struct CoreParams
{
    std::string name = "core";

    /// @name Pipeline widths
    /// @{
    unsigned fetchWidth = 2;    //!< instructions fetched per cycle
    unsigned dispatchWidth = 2; //!< in-order: dual-issue width
    unsigned commitWidth = 2;
    /// @}

    /** Pipeline flush penalty for a branch mispredict (cycles). */
    unsigned mispredictPenalty = 8;
    /** Fetch bubble after a correctly predicted taken branch. */
    unsigned takenBranchBubble = 0;

    /// @name Functional unit counts
    /// @{
    unsigned numIntAlu = 2;
    unsigned numIntMul = 1;
    unsigned numFpSimd = 1;
    unsigned numLoadPorts = 1;
    unsigned numStorePorts = 1;
    unsigned numBranch = 1;
    /// @}

    /** Per-class latencies. */
    LatencyTable latency = defaultLatencies();
    /** Iterative (unpipelined) divide units. */
    bool intDivPipelined = false;
    bool fpDivPipelined = false;

    /// @name Memory pipeline
    /// @{
    unsigned storeBufferEntries = 4; //!< in-order store buffer slots
    bool forwarding = true;          //!< store-to-load forwarding
    unsigned forwardLatency = 1;     //!< forwarded load-to-use cycles
    /**
     * Store-to-load forwarding visibility window: how many recent
     * stores a load's forwarding check scans (the pendingStores ring
     * in the accounting cores). Deliberately independent of sqEntries
     * / storeBufferEntries -- it bounds the *search* cost of the
     * check, not a hardware queue -- and 0 selects the historical
     * per-family default (16 for the out-of-order model, 8 for the
     * in-order model), which keeps default fingerprints, warm caches
     * and goldens unchanged. Excluded from every raced space.
     */
    unsigned storeForwardWindow = 0;
    /// @}

    /// @name Out-of-order window (ignored by the in-order model)
    /// @{
    unsigned robEntries = 128;
    unsigned iqEntries = 40;  //!< issue queue / reservation stations
    unsigned lqEntries = 32;
    unsigned sqEntries = 24;
    /// @}

    cache::HierarchyParams mem;
    branch::BranchParams bp;

    /** fatal() unless the configuration is self-consistent. */
    void validate() const;

    /** @return FU count for a pool. */
    unsigned poolSize(FuPool pool) const;

    /** @return the effective forwarding window (storeForwardWindow,
     *  or @p family_default when it is 0). */
    unsigned
    storeForwardWindowFor(unsigned family_default) const
    {
        return storeForwardWindow ? storeForwardWindow
                                  : family_default;
    }
};

/**
 * Public-information baseline configurations (step #1 + #2 of the
 * methodology): everything a careful user could set from the Cortex-A53
 * / Cortex-A72 technical reference manuals plus lmbench-style latency
 * probing, with best-effort guesses for the rest. These are the
 * *untuned* models evaluated in Fig. 4.
 */
CoreParams publicInfoA53();
CoreParams publicInfoA72();

/**
 * Public-information baseline for the Cortex-M-class board: datasheet
 * facts (single-issue, short pipeline, small L1s, no L2, flat TCM-like
 * memory) plus guesses for everything the datasheet leaves out.
 */
CoreParams publicInfoCortexM();

} // namespace raceval::core

#endif // RACEVAL_CORE_PARAMS_HH
