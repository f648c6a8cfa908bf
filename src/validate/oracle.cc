#include "validate/oracle.hh"

#include "vm/functional.hh"

namespace raceval::validate
{

hw::PerfCounters
HardwareOracle::measure(const isa::Program &program)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex);
        entry = &cache[program.name];
    }
    // The board runs outside the map lock, so different benchmarks
    // measure concurrently; call_once holds back every other caller
    // for this name until the one measurement is in.
    std::call_once(entry->measured, [&] {
        vm::FunctionalCore source(program);
        entry->perf = machine->measure(source);
    });
    return entry->perf;
}

} // namespace raceval::validate
