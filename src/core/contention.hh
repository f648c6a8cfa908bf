/**
 * @file
 * Functional-unit contention model (paper §IV-A): owns the mapping of
 * instructions to functional units, tracks per-unit availability, and
 * enforces issue-slot compatibility (e.g. dual-issue restrictions fall
 * out of the per-pool unit counts).
 */

#ifndef RACEVAL_CORE_CONTENTION_HH
#define RACEVAL_CORE_CONTENTION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/params.hh"

namespace raceval::core
{

/**
 * Tracks when each functional unit next becomes free.
 *
 * Pipelined units accept a new instruction every cycle (initiation
 * interval 1); iterative units (divides by default) are busy for the
 * full operation latency.
 */
class ContentionModel
{
  public:
    explicit ContentionModel(const CoreParams &params);

    /**
     * Reserve a unit for one instruction. Inline: this runs once per
     * replayed instruction in the in-order and OoO replay loops.
     *
     * @param cls timing class of the instruction.
     * @param ready earliest cycle its operands allow it to start.
     * @return the cycle the instruction actually starts executing
     *         (>= ready; later when all units of the pool are busy).
     */
    uint64_t
    reserve(isa::OpClass cls, uint64_t ready)
    {
        Pool &pool = pools[poolIndex[static_cast<size_t>(cls)]];

        if (pipelined[static_cast<size_t>(cls)]) {
            // Pipelined units accept one op per unit per cycle. Model
            // the pool as a per-cycle start-rate limit rather than
            // per-unit next-free times: reservations are made in
            // *program* order, but the machine issues out of order, so
            // an op that becomes ready late must never block an
            // earlier-ready younger op (which a future-timestamped
            // unit booking would do).
            uint64_t t = ready;
            for (;;) {
                size_t slot = static_cast<size_t>(t % rateWindow);
                if (pool.cycleStamp[slot] != t) {
                    pool.cycleStamp[slot] = t;
                    pool.startedInCycle[slot] = 0;
                }
                if (pool.startedInCycle[slot] < pool.units) {
                    ++pool.startedInCycle[slot];
                    return t;
                }
                ++t;
            }
        }

        // Iterative units (divide/sqrt) genuinely occupy a unit for
        // the full latency; per-unit next-free tracking stays
        // appropriate.
        size_t best = 0;
        for (size_t i = 1; i < pool.freeAt.size(); ++i) {
            if (pool.freeAt[i] < pool.freeAt[best])
                best = i;
        }
        uint64_t start = ready > pool.freeAt[best] ? ready
                                                   : pool.freeAt[best];
        pool.freeAt[best] = start + latency[static_cast<size_t>(cls)];
        return start;
    }

    /**
     * @return the earliest cycle a unit of the class's pool is free,
     * without reserving it (cycle-by-cycle models peek first and only
     * reserve when they actually issue). Pipelined pools report 0
     * (use canStartAt for a per-cycle check).
     */
    uint64_t earliestFree(isa::OpClass cls) const;

    /**
     * @return true when an op of cls could start at `cycle`. Inline:
     * the detailed machines ask once per issue attempt.
     */
    bool
    canStartAt(isa::OpClass cls, uint64_t cycle) const
    {
        if (pipelined[static_cast<size_t>(cls)]) {
            const Pool &pool = pools[poolIndex[static_cast<size_t>(cls)]];
            size_t slot = static_cast<size_t>(cycle % rateWindow);
            return pool.cycleStamp[slot] != cycle
                || pool.startedInCycle[slot] < pool.units;
        }
        return earliestFree(cls) <= cycle;
    }

    /** @return operation latency for a class (loads return 0). */
    unsigned
    latencyOf(isa::OpClass cls) const
    {
        return latency[static_cast<size_t>(cls)];
    }

    /** Clear all unit reservations. */
    void reset();

  private:
    /** Ring window for per-cycle start-rate accounting. */
    static constexpr size_t rateWindow = 1024;

    struct Pool
    {
        unsigned units = 1;
        /** Iterative units: next-free cycle per unit. */
        std::vector<uint64_t> freeAt;
        /** Pipelined pools: starts per cycle (ring keyed by cycle). */
        std::vector<uint64_t> cycleStamp;
        std::vector<uint8_t> startedInCycle;
    };

    std::array<Pool, numFuPools> pools;
    /** poolOf() per timing class, looked up once at construction. */
    std::array<uint8_t, isa::numOpClasses> poolIndex;
    LatencyTable latency;
    std::array<bool, isa::numOpClasses> pipelined;
};

} // namespace raceval::core

#endif // RACEVAL_CORE_CONTENTION_HH
