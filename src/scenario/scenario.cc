#include "scenario/scenario.hh"

#include <algorithm>

#include "common/log.hh"
#include "ubench/ubench.hh"
#include "workload/firmware.hh"
#include "workload/workload.hh"

namespace raceval::scenario
{

namespace
{

// --- workload suite adapters --------------------------------------------

size_t
ubenchCount()
{
    return ubench::all().size();
}

const char *
ubenchNameAt(size_t index)
{
    return ubench::all()[index].name;
}

isa::Program
ubenchBuildAt(size_t index)
{
    return ubench::build(ubench::all()[index]);
}

size_t
specCount()
{
    return workload::all().size();
}

const char *
specNameAt(size_t index)
{
    return workload::all()[index].name;
}

isa::Program
specBuildAt(size_t index)
{
    return workload::build(workload::all()[index]);
}

size_t
firmwareCount()
{
    return workload::firmware::all().size();
}

const char *
firmwareNameAt(size_t index)
{
    return workload::firmware::all()[index].name;
}

isa::Program
firmwareBuildAt(size_t index)
{
    return workload::firmware::build(workload::firmware::all()[index]);
}

} // namespace

bool
TargetBoard::allows(core::ModelFamily family) const
{
    return std::find(families.begin(), families.end(), family)
        != families.end();
}

const char *
workloadRoleName(WorkloadRole role)
{
    switch (role) {
      case WorkloadRole::Tuning: return "tuning";
      case WorkloadRole::HeldOut: return "held-out";
      case WorkloadRole::Firmware: return "firmware";
      default: panic("bad workload role %d", static_cast<int>(role));
    }
}

const std::vector<TargetBoard> &
targets()
{
    static const std::vector<TargetBoard> table = {
        // The two pre-scenario boards. Salt 0 is deliberate
        // back-compat: every checkpoint and warm EvalCache file written
        // before this layer existed must keep resolving to the same
        // keys (tested in test_scenario.cc). Their model families never
        // overlap, so the family salt already keeps their cache entries
        // apart.
        {.name = "cortex-a53",
         .description =
             "RK3399 'little' cluster: dual-issue in-order A-class "
             "board",
         .outOfOrderHw = false,
         .defaultFamily = core::ModelFamily::InOrder,
         .families = {core::ModelFamily::InOrder,
                      core::ModelFamily::Interval},
         .fingerprintSalt = 0,
         .secret = hw::secretA53,
         .publicInfo = core::publicInfoA53,
         .clamp = {}},
        {.name = "cortex-a72",
         .description =
             "RK3399 'big' cluster: 3-wide out-of-order A-class board",
         .outOfOrderHw = true,
         .defaultFamily = core::ModelFamily::Ooo,
         .families = {core::ModelFamily::Ooo},
         .fingerprintSalt = 0,
         .secret = hw::secretA72,
         .publicInfo = core::publicInfoA72,
         .clamp = {}},
        // The microcontroller-class scenario. Nonzero salt ("M-class1"
        // in ASCII) because its in-order hardware shares model
        // families with the A53 board -- without it a shared warm
        // cache could alias the two. All three families may model it:
        // the point of the scenario is stressing the tuner where the
        // paper never went. Short-pipeline flush costs, tiny BTBs,
        // wait-stated SRAM instead of DDR: the default A-class levels
        // do not even contain the M-class ground truth, so the clamp
        // is what makes the race winnable (and keeps it from burning
        // budget on DDR latencies).
        {.name = "cortex-m-class",
         .description =
             "microcontroller-class board: single-issue, no L2, flat "
             "TCM-like memory, tiny BTB",
         .outOfOrderHw = false,
         .defaultFamily = core::ModelFamily::InOrder,
         .families = {core::ModelFamily::InOrder, core::ModelFamily::Ooo,
                      core::ModelFamily::Interval},
         .fingerprintSalt = 0x4d2d636c61737331ull, // "M-class1"
         .secret = hw::secretCortexM,
         .publicInfo = core::publicInfoCortexM,
         .clamp = {.hasL2 = false,
                   .mispredictPenaltyLevels = {1, 2, 3, 4, 5, 6, 8},
                   .btbBitsLevels = {3, 4, 5, 6, 7, 8},
                   .dramLatencyLevels = {4, 6, 8, 9, 12, 16, 24},
                   .dramCyclesPerLineLevels = {1, 2, 3, 4, 6}}},
    };
    return table;
}

const TargetBoard *
findTarget(const std::string &name)
{
    for (const TargetBoard &board : targets()) {
        if (name == board.name)
            return &board;
    }
    return nullptr;
}

const std::vector<WorkloadSuite> &
workloadSuites()
{
    static const std::vector<WorkloadSuite> table = {
        {"ubench", "Table I micro-benchmarks (the tuning suite)",
         WorkloadRole::Tuning, ubenchCount, ubenchNameAt, ubenchBuildAt},
        {"spec2017",
         "Table II SPEC CPU2017 stand-ins (held out from tuning)",
         WorkloadRole::HeldOut, specCount, specNameAt, specBuildAt},
        {"firmware",
         "firmware-shaped long traces (dispatch loop, timer wheel, "
         "list walk)",
         WorkloadRole::Firmware, firmwareCount, firmwareNameAt,
         firmwareBuildAt},
    };
    return table;
}

const WorkloadSuite *
findSuite(const std::string &name)
{
    for (const WorkloadSuite &suite : workloadSuites()) {
        if (name == suite.name)
            return &suite;
    }
    return nullptr;
}

namespace
{

std::string
knownNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

const TargetBoard &
targetOrDie(const std::string &name)
{
    const TargetBoard *board = findTarget(name);
    if (!board) {
        std::vector<std::string> names;
        for (const TargetBoard &b : targets())
            names.push_back(b.name);
        fatal("unknown target '%s' (known: %s)", name.c_str(),
              knownNames(names).c_str());
    }
    return *board;
}

const WorkloadSuite &
suiteOrDie(const std::string &name)
{
    const WorkloadSuite *suite = findSuite(name);
    if (!suite) {
        std::vector<std::string> names;
        for (const WorkloadSuite &s : workloadSuites())
            names.push_back(s.name);
        fatal("unknown workload suite '%s' (known: %s)", name.c_str(),
              knownNames(names).c_str());
    }
    return *suite;
}

const TargetBoard &
defaultTargetFor(core::ModelFamily family)
{
    return targetOrDie(family == core::ModelFamily::Ooo ? "cortex-a72"
                                                        : "cortex-a53");
}

} // namespace raceval::scenario
