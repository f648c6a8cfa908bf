/**
 * @file
 * Record-once / replay-many trace storage for the evaluation engine.
 *
 * Every benchmark instance registered with the bank is functionally
 * executed exactly once; the resulting dynamic instruction stream is
 * memoized and every subsequent evaluation is a pure trace replay into
 * a timing model. Residency is decided once, at record time: a trace
 * at or below the per-trace threshold keeps a packed
 * structure-of-arrays form (vm::PackedTrace -- decoded once, replayed
 * through the zero-virtual-call PackedStream); a larger trace keeps
 * only its compact sift encoding and replays through a SiftCursor
 * (the spill path).
 */

#ifndef RACEVAL_ENGINE_TRACE_BANK_HH
#define RACEVAL_ENGINE_TRACE_BANK_HH

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "sift/sift.hh"
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
    uint64_t residentTraces = 0; //!< traces with a packed in-memory form
    uint64_t spilledTraces = 0; //!< traces kept as sift bytes only
    uint64_t residentBytes = 0; //!< memory held by packed replay arrays
    uint64_t encodedBytes = 0;  //!< memory held by sift encodings
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
     * @param memory_resident_max_insts traces at or below this dynamic
     *        instruction count get a packed in-memory form; larger
     *        traces replay from their sift encoding only (the spill
     *        path).
     */
    explicit TraceBank(uint64_t memory_resident_max_insts = 1ull << 20);

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

    /** What one replay of an instance runs over: exactly one member
     *  is set. */
    struct Replay
    {
        /** The resident packed form (the hot path). */
        std::shared_ptr<const vm::PackedTrace> packed;
        /** A cursor over the sift encoding, when the trace is spilled. */
        std::unique_ptr<vm::TraceSource> spilled;
    };

    /**
     * Acquire one replay of an instance's recorded trace -- the replay
     * hot path: the packed form when resident, else a sift cursor.
     * Records on first use. Counts one replay.
     */
    Replay replay(size_t id);

    /**
     * Open a replay handle over an instance's recorded trace.
     *
     * Records the trace on first use (functional execution + sift
     * encoding). The returned source replays a stream byte-identical
     * to live functional execution.
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
        std::shared_ptr<const sift::SiftTrace> trace;
        /** Packed replay form; null for spilled (sift-replayed) traces.
         *  Set once by record(); read-only afterwards. */
        std::shared_ptr<const vm::PackedTrace> packedTrace;
    };

    Entry &entryFor(size_t id);
    void record(Entry &entry);

    uint64_t maxResidentInsts;

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Entry>> entries;
    std::unordered_map<uint64_t, size_t> byFingerprint;
    TraceBankStats counters;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_TRACE_BANK_HH
