/**
 * @file
 * Branch prediction unit: direction predictors, branch target buffer,
 * return address stack, and an optional dedicated indirect-target
 * predictor.
 *
 * The paper calls branch predictors "ideal candidates for automated
 * tuning" because their real configurations are undisclosed; the
 * predictor *kind* and every geometry knob here are exposed to the
 * racing tuner. Indirect-branch support is the feature the paper added
 * after micro-benchmark CS1 exposed its absence (§IV-B).
 */

#ifndef RACEVAL_BRANCH_PREDICTOR_HH
#define RACEVAL_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "vm/trace.hh"

namespace raceval::branch
{

/** Direction predictor families selectable by the tuner. */
enum class PredictorKind : uint8_t
{
    NotTaken,   //!< static: conditional branches predicted not taken
    Bimodal,    //!< per-pc 2-bit counters
    GShare,     //!< global history xor pc
    Local,      //!< per-pc local history into shared counters
    Tournament, //!< bimodal + gshare with a chooser

    NumKinds
};

/** Configuration surface of the branch unit. */
struct BranchParams
{
    PredictorKind kind = PredictorKind::Bimodal;
    unsigned tableBits = 12;     //!< log2 of counter table entries
    unsigned historyBits = 8;    //!< global/local history length
    unsigned btbBits = 9;        //!< log2 of BTB entries
    unsigned rasEntries = 8;     //!< return address stack depth
    bool indirect = false;       //!< dedicated indirect target predictor
    unsigned indirectBits = 8;   //!< log2 of indirect table entries
    unsigned indirectHistory = 4;//!< path history length for indirect
};

/** Counted outcomes, consumed by cost functions and perf counters. */
struct BranchStats
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t directionMispredicts = 0;
    uint64_t targetMispredicts = 0;

    /** @return misprediction rate in [0, 1]. */
    double
    rate() const
    {
        return branches ? static_cast<double>(mispredicts)
            / static_cast<double>(branches) : 0.0;
    }
};

/**
 * Complete branch prediction unit.
 *
 * Timing models call predict() once per dynamic branch; the unit
 * self-updates with the actual outcome and reports whether fetch would
 * have been redirected (i.e. a mispredict that costs the pipeline its
 * flush penalty).
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchParams &params);

    /**
     * Predict one dynamic branch and update all structures.
     *
     * @param dyn the dynamic branch instruction (taken/nextPc filled).
     * @return true when the prediction was wrong (direction or target).
     */
    bool predict(const vm::DynInst &dyn);

    /**
     * Field-wise overload for the packed replay path (identical
     * behavior; the unit reads exactly these four facts).
     *
     * @param pc the branch pc.
     * @param cls the branch's OpClass (must be a Branch* class).
     * @param taken actual outcome.
     * @param next_pc actual successor pc.
     */
    bool predict(uint64_t pc, isa::OpClass cls, bool taken,
                 uint64_t next_pc);

    /** @return accumulated statistics. */
    const BranchStats &stats() const { return bstats; }

    /** Forget all learned state (between runs). */
    void reset();

  private:
    bool predictDirection(uint64_t pc);
    void updateDirection(uint64_t pc, bool taken);
    static void updateCounter(uint8_t &counter, bool taken);

    BranchParams params;
    BranchStats bstats;

    // Direction state.
    std::vector<uint8_t> bimodal;     //!< 2-bit counters
    std::vector<uint8_t> gshare;      //!< 2-bit counters
    std::vector<uint16_t> localHist;  //!< per-pc local histories
    std::vector<uint8_t> localCtr;    //!< local counter table
    std::vector<uint8_t> chooser;     //!< tournament selector
    uint64_t globalHistory = 0;

    // Target state.
    struct BtbEntry { uint64_t tag = 0; uint64_t target = 0;
                      bool valid = false; };
    std::vector<BtbEntry> btb;
    std::vector<uint64_t> ras;
    size_t rasTop = 0;
    std::vector<BtbEntry> indirectTable;
    uint64_t pathHistory = 0;
};

} // namespace raceval::branch

#endif // RACEVAL_BRANCH_PREDICTOR_HH
