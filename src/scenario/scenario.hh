/**
 * @file
 * The scenario tables: one declarative seam between "a validation
 * target" and everything that consumes one.
 *
 * The paper validates against exactly two boards (Cortex-A53/A72) and
 * two program suites (Table I ubenches for tuning, Table II SPEC
 * stand-ins held out), and before this layer existed those four names
 * were hardwired through the flow, the raced-space bindings, the
 * campaign and every bench driver. A scenario is the pairing the paper
 * treats as implicit: a TargetBoard (hidden ground truth + public-info
 * baseline + the model families allowed to claim they model it) and a
 * WorkloadSuite (a named program family with a role: `tuning` programs
 * may be raced, `held-out` programs may only be measured and reported,
 * `firmware` is the microcontroller-shaped family). Drivers resolve
 * both by name from fixed tables, as they resolve model families from
 * core::modelFamilies(). Adding a board or a suite is one row in
 * scenario.cc.
 */

#ifndef RACEVAL_SCENARIO_SCENARIO_HH
#define RACEVAL_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hh"
#include "core/timing_model.hh"
#include "hw/machine.hh"
#include "isa/program.hh"

namespace raceval::scenario
{

/**
 * Per-target clamping of the raced parameter space, consumed by
 * validate::SniperParamSpace. A default-constructed clamp reproduces
 * the paper's A-class space *exactly* -- the binding table's
 * declaration order is raced-trajectory ABI, and the A53/A72 fig4/fig5
 * results must stay bit-identical.
 */
struct SpaceClamp
{
    /** False drops every l2_* knob (the board has no L2 to race). */
    bool hasL2 = true;
    /// @name Level overrides (empty = keep the default level list)
    /// @{
    std::vector<int64_t> mispredictPenaltyLevels; //!< short pipelines
    std::vector<int64_t> btbBitsLevels;           //!< small BTBs
    std::vector<int64_t> dramLatencyLevels;       //!< TCM vs DDR
    std::vector<int64_t> dramCyclesPerLineLevels;
    /// @}
};

/**
 * One validation target: everything the flow needs to race a model
 * against a board, minus any A53/A72 assumption.
 */
struct TargetBoard
{
    const char *name = "";        //!< stable CLI/report tag
    const char *description = ""; //!< one-line --list blurb
    /** Which detailed hardware machine measures the ground truth. */
    bool outOfOrderHw = false;
    /** Family drivers pick when the user names only the target. */
    core::ModelFamily defaultFamily = core::ModelFamily::InOrder;
    /** Model families allowed to validate against this board. */
    std::vector<core::ModelFamily> families;
    /**
     * Cache-key / checkpoint salt for this target. The pre-scenario
     * A53/A72 targets deliberately use salt 0 so that every
     * checkpoint, warm EvalCache file and raced trajectory recorded
     * before this layer existed stays valid (the same back-compat rule
     * the default search strategy follows). Every target added since
     * must carry a distinct nonzero salt, stable across versions --
     * it is what keeps a shared warm cache from aliasing two boards
     * that happen to share a model family.
     */
    uint64_t fingerprintSalt = 0;
    /** Hidden ground truth; measured, never read (black-box rule). */
    hw::HwParams (*secret)() = nullptr;
    /** Steps #1-#3 public-information baseline. */
    core::CoreParams (*publicInfo)() = nullptr;
    /** Raced-space clamping for this board's hardware class. */
    SpaceClamp clamp;

    /** @return true when @p family may validate against this board. */
    bool allows(core::ModelFamily family) const;
};

/** What a workload suite is for (the paper's hold-out contract). */
enum class WorkloadRole : uint8_t
{
    Tuning,  //!< raced during step #4 (Table I ubenches)
    HeldOut, //!< measured + reported only, never raced (Table II)
    Firmware //!< microcontroller-shaped long traces (tunable)
};

/** @return stable display name of a role. */
const char *workloadRoleName(WorkloadRole role);

/** One named program family with its hold-out role. */
struct WorkloadSuite
{
    const char *name = "";        //!< stable CLI tag
    const char *description = "";
    WorkloadRole role = WorkloadRole::Tuning;
    size_t (*count)() = nullptr;
    const char *(*nameAt)(size_t index) = nullptr;
    isa::Program (*buildAt)(size_t index) = nullptr;
};

/** @return the fixed target table (cortex-a53, cortex-a72,
 *  cortex-m-class), in --list order. */
const std::vector<TargetBoard> &targets();

/** @return the target named @p name, or nullptr when unknown. */
const TargetBoard *findTarget(const std::string &name);

/** @return the fixed workload-suite table (ubench, spec2017,
 *  firmware), in --list order. */
const std::vector<WorkloadSuite> &workloadSuites();

/** @return the suite named @p name, or nullptr when unknown. */
const WorkloadSuite *findSuite(const std::string &name);

/** @return a known target; fatal with the known names on miss. */
const TargetBoard &targetOrDie(const std::string &name);

/** @return a known suite; fatal with the known names on miss. */
const WorkloadSuite &suiteOrDie(const std::string &name);

/** Stable default target of a model family (the pre-scenario mapping:
 *  OoO validated the A72-class board, everything else the A53). */
const TargetBoard &defaultTargetFor(core::ModelFamily family);

} // namespace raceval::scenario

#endif // RACEVAL_SCENARIO_SCENARIO_HH
