#include "engine/trace_bank.hh"

#include "common/log.hh"
#include "engine/fingerprint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "vm/functional.hh"

namespace raceval::engine
{

TraceBank::TraceBank(uint64_t memory_resident_max_insts,
                     uint64_t residency_budget_insts)
    : maxResidentInsts(memory_resident_max_insts),
      residencyBudgetInsts(residency_budget_insts)
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
    std::call_once(entry.recordOnce, [&] {
        RV_SPAN("bank.record");
        vm::FunctionalCore live(entry.program);
        auto trace = std::make_shared<const sift::SiftTrace>(
            sift::encodeTrace(entry.program, live));
        {
            std::lock_guard<std::mutex> lock(mutex);
            entry.trace = std::move(trace);
            ++counters.recordings;
            counters.recordedInsts += entry.trace->instCount();
            counters.encodedBytes += entry.trace->encodedBytes();
            // Provisionally spilled; admission moves it to resident.
            ++counters.spilledTraces;
        }
        RV_INSTANT("bank.spill", entry.trace->instCount());
        tryAdmit(entry);
    });
}

void
TraceBank::tryAdmit(Entry &entry)
{
    // One packer per entry; concurrent replayers of other entries are
    // not blocked (the global mutex is only taken for bookkeeping).
    std::lock_guard<std::mutex> admit(entry.admitMutex);
    uint64_t insts;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (entry.packedTrace)
            return;
        insts = entry.trace->instCount();
        if (insts > maxResidentInsts)
            return;
        if (residencyBudgetInsts
            && residentInsts + insts > residencyBudgetInsts)
            return;
        // Reserve before the (slow) pack so a concurrent admission of
        // another entry cannot overshoot the budget.
        residentInsts += insts;
    }

    sift::SiftCursor cursor(entry.trace);
    auto packed = std::make_shared<const vm::PackedTrace>(
        vm::PackedTrace::build(entry.trace->program(), cursor));

    bool readmitted;
    {
        std::lock_guard<std::mutex> lock(mutex);
        counters.residentBytes += packed->packedBytes();
        entry.packedTrace = std::move(packed);
        ++counters.residentTraces;
        --counters.spilledTraces;
        // First-recording admission is not a re-admission: the trace
        // never served a replay from its spilled form.
        readmitted = entry.servedSpilled;
        if (readmitted)
            ++counters.readmittedTraces;
        RV_GAUGE_SET("bank.resident_bytes",
                     static_cast<int64_t>(counters.residentBytes));
    }
    if (readmitted)
        RV_INSTANT("bank.readmit", insts);
    else
        RV_INSTANT("bank.admit", insts);
}

TraceBank::Replay
TraceBank::replay(size_t id)
{
    Entry &entry = entryFor(id);
    record(entry);
    Replay out;
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.replays;
        out.packed = entry.packedTrace;
        if (!out.packed)
            entry.servedSpilled = true;
    }
    if (!out.packed) {
        // Spilled: retry admission (the budget may have been raised or
        // freed since recording) rather than re-walking the sift
        // stream on every replay.
        tryAdmit(entry);
        std::lock_guard<std::mutex> lock(mutex);
        out.packed = entry.packedTrace;
    }
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
    std::lock_guard<std::mutex> lock(mutex);
    return entry.trace->instCount();
}

void
TraceBank::setResidencyBudget(uint64_t insts)
{
    std::lock_guard<std::mutex> lock(mutex);
    residencyBudgetInsts = insts;
}

TraceBankStats
TraceBank::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace raceval::engine
