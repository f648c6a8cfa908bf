/**
 * @file
 * Firmware-shaped workloads for the microcontroller-class scenario.
 *
 * The paper never leaves the Cortex-A application cores; ROADMAP's
 * scenario-diversity item asks what the racing tuner does on traces
 * shaped like embedded firmware instead of SPEC regions: an
 * interrupt-style dispatch loop, a software-timer wheel, and a
 * linked-list traversal. All three are built from the same assembly
 * idioms as the Table I micro-benchmarks, but run as *long* traces
 * (> 1 Mi dynamic instructions after scaling), an order of magnitude
 * beyond the short tuning traces.
 */

#ifndef RACEVAL_WORKLOAD_FIRMWARE_HH
#define RACEVAL_WORKLOAD_FIRMWARE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace raceval::workload::firmware
{

/** One firmware program family entry. */
struct FirmwareInfo
{
    const char *name;        //!< e.g. "fw-dispatch"
    const char *description; //!< what firmware pattern it mimics
    uint64_t dynInsts;       //!< nominal (unscaled) dynamic count
    isa::Program (*builder)(uint64_t target_insts);
};

/**
 * Scaling cap for firmware traces: halving stops in (cap/2, cap], so
 * every scaled firmware trace runs more than 1 Mi instructions. The
 * sizes define the firmware workloads and their goldens. This is the
 * reason ubench::scaledCount takes the cap as a parameter.
 */
constexpr uint64_t traceCap = 2'097'152;

/** @return the firmware suite. */
const std::vector<FirmwareInfo> &all();

/** @return entry by name, or nullptr. */
const FirmwareInfo *find(const std::string &name);

/** Build a firmware program at its scaled instruction count. */
isa::Program build(const FirmwareInfo &info);

} // namespace raceval::workload::firmware

#endif // RACEVAL_WORKLOAD_FIRMWARE_HH
