/**
 * @file
 * The single-core memory hierarchy (L1I + L1D + shared L2 + DRAM) that
 * both the abstract Sniper-like core models and the detailed hardware
 * model instantiate.
 */

#ifndef RACEVAL_CACHE_HIERARCHY_HH
#define RACEVAL_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/dram.hh"
#include "cache/prefetch.hh"

namespace raceval::cache
{

/** Where an access was served from. */
enum class ServedBy : uint8_t { L1, L2, Memory };

/** Outcome of one demand access through the hierarchy. */
struct AccessResult
{
    /** Total load-to-use cycles. */
    unsigned latency = 0;
    ServedBy servedBy = ServedBy::L1;
    bool victimHit = false;
};

/**
 * In-flight prefetch arrival times keyed by line address: an
 * open-addressing map with linear probing that allocates only when it
 * grows, never per entry. Erasing shifts the rest of the probe chain
 * back, so there are no tombstones and a lookup stops at the first
 * empty slot.
 */
class InFlightTable
{
  public:
    InFlightTable();

    /** Insert or overwrite the arrival time of @p line. */
    void
    assign(uint64_t line, uint64_t ready)
    {
        if (line == emptyLine) {
            count += !hasEmptyLine;
            hasEmptyLine = true;
            emptyLineReady = ready;
            return;
        }
        size_t i = homeSlot(line);
        for (;; i = (i + 1) & mask) {
            Slot &slot = slots[i];
            if (slot.line == line) {
                slot.ready = ready;
                return;
            }
            if (slot.line == emptyLine)
                break;
        }
        if ((count + 1) * 4 > slots.size() * 3) {
            grow();
            i = homeSlot(line);
            while (slots[i].line != emptyLine)
                i = (i + 1) & mask;
        }
        slots[i] = Slot{line, ready};
        ++count;
    }

    /** Remove @p line; @return its arrival time when it was present. */
    std::optional<uint64_t>
    take(uint64_t line)
    {
        if (line == emptyLine) {
            if (!hasEmptyLine)
                return std::nullopt;
            hasEmptyLine = false;
            --count;
            return emptyLineReady;
        }
        for (size_t i = homeSlot(line);; i = (i + 1) & mask) {
            if (slots[i].line == line) {
                uint64_t ready = slots[i].ready;
                erase(i);
                return ready;
            }
            if (slots[i].line == emptyLine)
                return std::nullopt;
        }
    }

    /** @return number of entries. */
    size_t size() const { return count; }

    /** Drop every entry (keeps the capacity). */
    void clear();

    /** @return number of slots (exposed for tests). */
    size_t capacity() const { return slots.size(); }

    /** @return the slot a line's probe chain starts at: Fibonacci
     *  hashing, the top log2(capacity) bits of line * 2^64/phi
     *  (exposed for tests). */
    size_t
    homeSlot(uint64_t line) const
    {
        return static_cast<size_t>((line * 0x9e3779b97f4a7c15ull)
                                   >> shift);
    }

  private:
    /** Marks an empty slot; the line with this address lives aside. */
    static constexpr uint64_t emptyLine = ~0ull;

    struct Slot
    {
        uint64_t line = emptyLine;
        uint64_t ready = 0;
    };

    void erase(size_t hole);
    void grow();

    std::vector<Slot> slots; //!< power-of-two capacity
    size_t mask;
    unsigned shift; //!< 64 - log2(capacity)
    size_t count = 0;
    bool hasEmptyLine = false;
    uint64_t emptyLineReady = 0;
};

/**
 * Orchestrates lookups, fills, writebacks and prefetch across the
 * three cache levels and the DRAM channel.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params,
                             uint64_t rng_seed = 99);

    /**
     * One demand access. Inline so the L1-hit fast path folds into
     * the replay loop (this is the hot chain's entry point);
     * the miss machinery below L1 stays out of line in accessMiss().
     *
     * @param pc the accessing instruction (trains prefetchers).
     * @param addr byte address.
     * @param is_store write access (write-allocate).
     * @param is_inst instruction fetch (routes to L1I).
     * @param now current core cycle (DRAM queueing, prefetch timing).
     */
    AccessResult
    access(uint64_t pc, uint64_t addr, bool is_store, bool is_inst,
           uint64_t now)
    {
        uint64_t line = lineOf(addr);
        Cache &level1 = is_inst ? l1iCache : l1dCache;
        const CacheParams &l1p = is_inst ? hparams.l1i : hparams.l1d;
        Prefetcher *l1pf =
            is_inst ? l1iPrefetcher.get() : l1dPrefetcher.get();

        AccessResult result;
        result.latency = l1p.latency + (l1p.serialTagData ? 1 : 0);

        LookupResult l1 = level1.lookup(line, is_store);
        if (l1pf)
            runPrefetcher(l1pf, level1, pc, line, !l1.hit, now);

        if (l1.hit) {
            result.servedBy = ServedBy::L1;
            result.victimHit = l1.victimHit;
            if (l1.victimHit)
                result.latency += 1;
            if (hparams.timedPrefetch && l1.prefetchedLine)
                chargeInFlight(line, now, result);
            return result;
        }
        return accessMiss(pc, line, is_store, now, result, level1);
    }

    /** Invalidate all levels, reset prefetchers and counters. */
    void reset();

    const Cache &l1i() const { return l1iCache; }
    const Cache &l1d() const { return l1dCache; }
    const Cache &l2() const { return l2Cache; }
    const DramModel &dram() const { return dramModel; }
    const HierarchyParams &params() const { return hparams; }

    /** @return line size shared by all levels. */
    unsigned lineBytes() const { return hparams.l1d.lineBytes; }

    /** @return the line address of a byte address (line sizes are
     *  validated powers of two). */
    uint64_t lineOf(uint64_t addr) const { return addr >> lineShift; }

  private:
    /** Train @p prefetcher and install its candidates into
     *  @p level (an L1, or the L2). */
    void runPrefetcher(Prefetcher *prefetcher, Cache &level,
                       uint64_t pc, uint64_t line, bool miss,
                       uint64_t now);

    /** L1-miss continuation of access(): L2 lookup, DRAM, fills. */
    AccessResult accessMiss(uint64_t pc, uint64_t line, bool is_store,
                            uint64_t now, AccessResult result,
                            Cache &level1);

    /** Charge the remaining fill time of an in-flight prefetch a
     *  demand access caught up with (timedPrefetch only). */
    void chargeInFlight(uint64_t line, uint64_t now,
                        AccessResult &result);

    HierarchyParams hparams;
    unsigned lineShift; //!< log2(lineBytes())
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    DramModel dramModel;
    std::unique_ptr<Prefetcher> l1dPrefetcher;
    std::unique_ptr<Prefetcher> l1iPrefetcher;
    std::unique_ptr<Prefetcher> l2Prefetcher;
    std::vector<uint64_t> prefetchScratch;

    /** In-flight prefetch arrival times (timedPrefetch only). */
    InFlightTable inFlight;
};

} // namespace raceval::cache

#endif // RACEVAL_CACHE_HIERARCHY_HH
