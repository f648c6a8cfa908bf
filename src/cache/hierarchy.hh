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
#include <unordered_map>

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
        uint64_t line = addr / lineBytes();
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

  private:
    void runPrefetcher(Prefetcher *prefetcher, Cache &level1,
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
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    DramModel dramModel;
    std::unique_ptr<Prefetcher> l1dPrefetcher;
    std::unique_ptr<Prefetcher> l1iPrefetcher;
    std::unique_ptr<Prefetcher> l2Prefetcher;
    std::vector<uint64_t> prefetchScratch;

    /** In-flight prefetch arrival times (timedPrefetch only). */
    std::unordered_map<uint64_t, uint64_t> inFlight;
};

} // namespace raceval::cache

#endif // RACEVAL_CACHE_HIERARCHY_HH
