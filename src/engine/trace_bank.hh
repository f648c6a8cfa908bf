/**
 * @file
 * Record-once / replay-many trace storage for the evaluation engine.
 *
 * Every benchmark instance registered with the bank is functionally
 * executed exactly once; the resulting dynamic instruction stream is
 * memoized and every subsequent evaluation is a pure trace replay into
 * a timing model. The functional core is recorded straight into the
 * packed structure-of-arrays form (vm::PackedTrace -- decoded once,
 * replayed through the zero-virtual-call PackedStream); that is the
 * only form the bank keeps.
 */

#ifndef RACEVAL_ENGINE_TRACE_BANK_HH
#define RACEVAL_ENGINE_TRACE_BANK_HH

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "vm/packed_trace.hh"
#include "vm/trace.hh"

namespace raceval::engine
{

/** Aggregate TraceBank counters (all monotonically increasing). */
struct TraceBankStats
{
    uint64_t instances = 0;     //!< registered programs
    uint64_t recordings = 0;    //!< functional executions performed
    uint64_t replays = 0;       //!< replays served (one per run)
    uint64_t recordedInsts = 0; //!< dynamic instructions recorded
    uint64_t residentBytes = 0; //!< memory held by packed replay arrays
    /** Always 0: every trace is packed. Kept only because perfbench
     *  (perfbench/src/main.cc) still reads it. */
    uint64_t spilledTraces = 0;
    /** Always 0: no encoded form is kept beside the packed arrays.
     *  Kept only because perfbench (perfbench/src/main.cc) still reads
     *  it. */
    uint64_t encodedBytes = 0;
};

/**
 * The record-once trace store.
 *
 * Thread-safe: instances may be added and opened concurrently; the
 * first open() of an instance records it (guarded per instance), every
 * other caller waits for the recording and then shares it.
 */
class TraceBank
{
  public:
    /**
     * Register a program as a benchmark instance.
     *
     * Deduplicates by content fingerprint: registering an identical
     * program again returns the existing instance id (and its
     * already-recorded trace).
     *
     * @return the instance id.
     */
    size_t add(const isa::Program &program);

    /** @return number of registered instances. */
    size_t size() const;

    /** @return the program behind an instance. */
    const isa::Program &program(size_t id) const;

    /**
     * Acquire one replay of an instance's packed trace -- the replay
     * hot path. Records on first use. Counts one replay.
     */
    std::shared_ptr<const vm::PackedTrace> replay(size_t id);

    /**
     * Open a replay handle over an instance's recorded trace.
     *
     * Records the trace on first use. The returned source replays a
     * stream byte-identical to live functional execution.
     */
    std::unique_ptr<vm::TraceSource> open(size_t id);

    /** @return dynamic instruction count of an instance (records it). */
    uint64_t instCount(size_t id);

    TraceBankStats stats() const;

  private:
    struct Entry
    {
        isa::Program program;
        std::once_flag recordOnce;
        /** Set once by record(); read-only afterwards. */
        std::shared_ptr<const vm::PackedTrace> trace;
    };

    Entry &entryFor(size_t id);
    void record(Entry &entry);

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Entry>> entries;
    std::unordered_map<uint64_t, size_t> byFingerprint;
    TraceBankStats counters;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_TRACE_BANK_HH
