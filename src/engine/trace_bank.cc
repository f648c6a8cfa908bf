#include "engine/trace_bank.hh"

#include "common/log.hh"
#include "engine/fingerprint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "vm/functional.hh"

namespace raceval::engine
{

TraceBank::TraceBank(uint64_t memory_resident_max_insts)
    : maxResidentInsts(memory_resident_max_insts)
{
}

size_t
TraceBank::add(const isa::Program &program)
{
    uint64_t fp = fingerprint(program);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = byFingerprint.find(fp);
    if (it != byFingerprint.end())
        return it->second;
    size_t id = entries.size();
    auto entry = std::make_unique<Entry>();
    entry->program = program;
    entries.push_back(std::move(entry));
    byFingerprint.emplace(fp, id);
    counters.instances = entries.size();
    return id;
}

size_t
TraceBank::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

const isa::Program &
TraceBank::program(size_t id) const
{
    std::lock_guard<std::mutex> lock(mutex);
    RV_ASSERT(id < entries.size(), "trace bank: bad instance id %zu", id);
    return entries[id]->program;
}

TraceBank::Entry &
TraceBank::entryFor(size_t id)
{
    std::lock_guard<std::mutex> lock(mutex);
    RV_ASSERT(id < entries.size(), "trace bank: bad instance id %zu", id);
    return *entries[id];
}

void
TraceBank::record(Entry &entry)
{
    // call_once publishes trace and packedTrace to every caller, so
    // they are read without the bank mutex once record() returns.
    std::call_once(entry.recordOnce, [&] {
        RV_SPAN("bank.record");
        vm::FunctionalCore live(entry.program);
        entry.trace = std::make_shared<const sift::SiftTrace>(
            sift::encodeTrace(entry.program, live));
        uint64_t insts = entry.trace->instCount();
        // Residency is decided here, once: small traces are packed,
        // large ones replay from their sift bytes for good.
        if (insts <= maxResidentInsts) {
            sift::SiftCursor cursor(entry.trace);
            entry.packedTrace = std::make_shared<const vm::PackedTrace>(
                vm::PackedTrace::build(entry.trace->program(), cursor));
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.recordings;
            counters.recordedInsts += insts;
            counters.encodedBytes += entry.trace->encodedBytes();
            if (entry.packedTrace) {
                ++counters.residentTraces;
                counters.residentBytes += entry.packedTrace->packedBytes();
                RV_GAUGE_SET("bank.resident_bytes",
                             static_cast<int64_t>(counters.residentBytes));
            } else {
                ++counters.spilledTraces;
            }
        }
        if (entry.packedTrace)
            RV_INSTANT("bank.admit", insts);
        else
            RV_INSTANT("bank.spill", insts);
    });
}

TraceBank::Replay
TraceBank::replay(size_t id)
{
    Entry &entry = entryFor(id);
    record(entry);
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.replays;
    }
    Replay out;
    out.packed = entry.packedTrace;
    if (!out.packed)
        out.spilled = std::make_unique<sift::SiftCursor>(entry.trace);
    return out;
}

std::unique_ptr<vm::TraceSource>
TraceBank::open(size_t id)
{
    Replay r = replay(id);
    if (r.packed)
        return std::make_unique<vm::PackedCursor>(std::move(r.packed));
    return std::move(r.spilled);
}

uint64_t
TraceBank::instCount(size_t id)
{
    Entry &entry = entryFor(id);
    record(entry);
    return entry.trace->instCount();
}

TraceBankStats
TraceBank::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace raceval::engine
