/**
 * @file
 * Configuration surface of the memory hierarchy.
 *
 * Everything in this file is a candidate for the racing tuner: the
 * paper highlights address hashing (mask / xor / Mersenne modulo),
 * prefetcher choice and geometry, victim cache entries, serial vs.
 * parallel tag-data access, bandwidth, and main memory latency as
 * exactly the kind of undisclosed parameters users must otherwise
 * guess.
 */

#ifndef RACEVAL_CACHE_PARAMS_HH
#define RACEVAL_CACHE_PARAMS_HH

#include <cstdint>
#include <string>

#include "common/str.hh"

namespace raceval::cache
{

/** Set-index hash families (paper §IV-A). */
enum class HashKind : uint8_t { Mask, Xor, Mersenne, NumKinds };

/** Replacement policies. */
enum class ReplKind : uint8_t { LRU, TreePLRU, Random, FIFO, NumKinds };

/** Prefetcher families (paper: stride [38] and GHB [39]). */
enum class PrefetchKind : uint8_t
{
    None, NextLine, Stride, Ghb, NumKinds
};

/** One cache level's parameters. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * KiB;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Load-to-use hit latency in cycles (parallel tag+data). */
    unsigned latency = 2;
    /** Serial tag-then-data access adds one cycle to every hit. */
    bool serialTagData = false;
    HashKind hash = HashKind::Mask;
    ReplKind repl = ReplKind::LRU;
    /** Victim buffer entries (0 disables). */
    unsigned victimEntries = 0;
    /** Miss status holding registers: max overlapping misses. */
    unsigned mshrs = 4;
    /** Accesses accepted per cycle (port/bank bandwidth). */
    unsigned portsPerCycle = 1;

    PrefetchKind prefetch = PrefetchKind::None;
    /** Lines fetched ahead per trigger. */
    unsigned prefetchDegree = 1;
    /** Stride table entries (power of two). */
    unsigned strideEntries = 64;
    /** GHB size (power of two). */
    unsigned ghbEntries = 128;
    /** Keep prefetching when a demand access hits a prefetched line. */
    bool prefetchOnPrefetchHit = false;

    /** @return number of sets. */
    unsigned
    numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (assoc * lineBytes));
    }

    /** fatal() unless the geometry is consistent. */
    void validate() const;
};

/** Main memory (DDR) model parameters. */
struct DramParams
{
    /** Flat access latency in core cycles. */
    unsigned latency = 160;
    /** Sustained bandwidth: core cycles between line transfers. */
    unsigned cyclesPerLine = 8;
};

/** The full single-core hierarchy the paper models (L1I, L1D, L2). */
struct HierarchyParams
{
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;
    DramParams dram;

    /**
     * Whether the hierarchy has an L2 at all. Microcontroller-class
     * boards (Cortex-M) run L1 + flat TCM-like memory: misses skip
     * straight to dram.latency and `l2` is ignored (kept so default
     * construction and fingerprints of L2-bearing configs are
     * unchanged).
     */
    bool l2Present = true;

    /**
     * Model prefetch timeliness: a prefetched line is only usable once
     * its fill would actually have arrived. The abstract Sniper-like
     * models leave this off (idealized prefetch), the detailed hardware
     * model turns it on -- one of the deliberate abstraction gaps
     * between the two (DESIGN.md section 4).
     */
    bool timedPrefetch = false;
    /** Prefetch fills occupy DRAM bandwidth (detailed model only). */
    bool prefetchConsumesBandwidth = false;

    void validate() const;
};

} // namespace raceval::cache

#endif // RACEVAL_CACHE_PARAMS_HH
