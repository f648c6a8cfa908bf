/**
 * @file
 * Hardware measurement oracle: the validation flow's only window onto
 * the "board". Measures each benchmark once with perf-style counters
 * (paper §V) and caches the result, exactly like the paper's
 * measure-once / reuse-everywhere workflow.
 */

#ifndef RACEVAL_VALIDATE_ORACLE_HH
#define RACEVAL_VALIDATE_ORACLE_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "hw/machine.hh"
#include "isa/program.hh"

namespace raceval::validate
{

/** Cached hardware measurements keyed by benchmark name. */
class HardwareOracle
{
  public:
    /** @param machine the board stand-in (owned). */
    explicit HardwareOracle(std::unique_ptr<hw::HwMachine> machine)
        : machine(std::move(machine))
    {
    }

    /**
     * Measure a program (memoized by name).
     *
     * Thread-safe; the first caller for a name runs the detailed
     * model, everyone else reads the cache. Callers that arrive while
     * that measurement runs wait for it rather than measuring again;
     * different names measure concurrently.
     */
    hw::PerfCounters measure(const isa::Program &program);

    /** @return the underlying machine (for probes). */
    hw::HwMachine &board() { return *machine; }

  private:
    /** One benchmark's measurement, made once. */
    struct Entry
    {
        std::once_flag measured;
        hw::PerfCounters perf;
    };

    std::unique_ptr<hw::HwMachine> machine;
    std::mutex mutex; //!< guards the map; entries are address-stable
    std::map<std::string, Entry> cache;
};

} // namespace raceval::validate

#endif // RACEVAL_VALIDATE_ORACLE_HH
