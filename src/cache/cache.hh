/**
 * @file
 * Set-associative cache tag array with configurable set-index hashing,
 * replacement policy and an optional victim buffer.
 *
 * This is a *timing* structure: it tracks which lines are resident, not
 * their contents (functional data lives in vm::SparseMemory). Both the
 * abstract Sniper-like models and the detailed hardware model build
 * their hierarchies from this class.
 */

#ifndef RACEVAL_CACHE_CACHE_HH
#define RACEVAL_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/params.hh"
#include "common/rng.hh"
#include "common/str.hh"

namespace raceval::cache
{

/** Per-cache counters. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t victimHits = 0;
    uint64_t prefetchIssued = 0;
    uint64_t prefetchUseful = 0; //!< demand hits on prefetched lines
    uint64_t writebacks = 0;
};

/** Outcome of a single lookup. */
struct LookupResult
{
    bool hit = false;
    /** Hit was served by the victim buffer (costs one extra cycle). */
    bool victimHit = false;
    /** Hit landed on a line brought in by a prefetcher. */
    bool prefetchedLine = false;
};

/**
 * One cache level.
 *
 * Lookup and fill are separate so callers can model miss handling:
 * a demand miss first looks up, then (after the lower level responds)
 * fills. Evictions of dirty lines are reported via the fill result so
 * the caller can charge writeback bandwidth.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params, uint64_t rng_seed = 12345);

    /**
     * Look up a line; updates replacement state and dirty bits on hit.
     *
     * The tag-match hit path is inline (it is the replay hot loop's
     * most frequent call); victim-buffer handling and the miss path
     * live out of line in lookupSlow().
     *
     * @param line_addr byte address / line size.
     * @param is_write marks the line dirty on hit.
     */
    LookupResult
    lookup(uint64_t line_addr, bool is_write)
    {
        ++cstats.accesses;
        unsigned set = setIndex(line_addr);
        Line *set_lines =
            &lines[static_cast<size_t>(set) * cparams.assoc];
        for (unsigned way = 0; way < cparams.assoc; ++way) {
            Line &line = set_lines[way];
            if (line.valid && line.lineAddr == line_addr) {
                LookupResult result;
                result.hit = true;
                result.prefetchedLine = line.prefetched;
                if (line.prefetched) {
                    ++cstats.prefetchUseful;
                    line.prefetched = false; // count usefulness once
                }
                if (is_write)
                    line.dirty = true;
                touch(set, way);
                return result;
            }
        }
        return lookupSlow(line_addr, is_write, set);
    }

    /** Result of a fill: did we evict a dirty line? */
    struct FillResult
    {
        bool evictedDirty = false;
        bool evictedValid = false;
        uint64_t evictedLine = 0;
    };

    /** Where a line sits in its set, or where installing it goes. */
    struct Slot
    {
        unsigned set = 0;
        /** The resident way; else the first invalid way; else assoc
         *  (full set: install asks the replacement policy). */
        unsigned way = 0;
        bool resident = false;
    };

    /**
     * One scan of the line's set that finds the resident way or the
     * first invalid one (no state update). The valid ways of a set are
     * always a prefix: installs take the first invalid way and only
     * reset() invalidates lines, so the scan stops at the first
     * invalid way.
     */
    Slot
    locate(uint64_t line_addr) const
    {
        Slot slot;
        slot.set = setIndex(line_addr);
        const Line *set_lines =
            &lines[static_cast<size_t>(slot.set) * cparams.assoc];
        unsigned way = 0;
        for (; way < cparams.assoc; ++way) {
            const Line &line = set_lines[way];
            if (!line.valid)
                break;
            if (line.lineAddr == line_addr) {
                slot.resident = true;
                break;
            }
        }
        slot.way = way;
        return slot;
    }

    /**
     * Install a line at the non-resident slot locate() returned; no
     * other fill of this cache may come in between.
     *
     * @param line_addr line to install.
     * @param prefetched marks the line as prefetcher-brought.
     * @param is_write install dirty (write-allocate).
     */
    FillResult install(const Slot &slot, uint64_t line_addr,
                       bool prefetched, bool is_write);

    /**
     * Install a line (after a miss was serviced below); a no-op when
     * it is already resident (e.g. duplicate prefetch).
     */
    FillResult
    fill(uint64_t line_addr, bool prefetched, bool is_write)
    {
        Slot slot = locate(line_addr);
        if (slot.resident) {
            if (prefetched)
                ++cstats.prefetchIssued;
            return FillResult{};
        }
        return install(slot, line_addr, prefetched, is_write);
    }

    /** @return true when the line is resident (no state update). */
    bool probe(uint64_t line_addr) const { return locate(line_addr).resident; }

    /**
     * Mark a resident line dirty (dirty writeback arriving from the
     * level above); installs the line dirty when absent.
     */
    void writebackInto(uint64_t line_addr);

    /** Invalidate everything and zero statistics. */
    void reset();

    /** @return accumulated counters. */
    const CacheStats &stats() const { return cstats; }

    /** @return the active parameters. */
    const CacheParams &params() const { return cparams; }

    /** @return the set index for a line (exposed for tests). */
    unsigned
    setIndex(uint64_t line_addr) const
    {
        switch (cparams.hash) {
          case HashKind::Mask:
            return static_cast<unsigned>(line_addr & (sets - 1));
          case HashKind::Xor: {
            uint64_t folded = line_addr ^ (line_addr >> setBits)
                ^ (line_addr >> (2 * setBits));
            return static_cast<unsigned>(folded & (sets - 1));
          }
          default:
            // Prime-modulo indexing (Kharbutli et al.): spreads
            // conflict streams at the cost of leaving sets - prime
            // sets unused. Below 2^32 the remainder comes from the
            // precomputed reciprocal (Lemire et al., "Faster remainder
            // by direct computation", 2019), exact for 32-bit
            // numerator and divisor.
            if (line_addr >> 32)
                return static_cast<unsigned>(line_addr % indexablesets);
            return static_cast<unsigned>(
                (static_cast<unsigned __int128>(primeReciprocal
                                                * line_addr)
                 * indexablesets) >> 64);
        }
    }

  private:
    struct Line
    {
        uint64_t lineAddr = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    unsigned victimFind(uint64_t line_addr) const;
    /** Way to install into at a non-resident slot: its invalid way,
     *  else the replacement policy's victim. */
    unsigned installWay(const Slot &slot);
    LookupResult lookupSlow(uint64_t line_addr, bool is_write,
                            unsigned set);
    void touchTree(unsigned set, unsigned way);

    /** Update replacement state after a hit or install on (set, way).
     *  LRU stamps inline (the common policy on the hot path); the
     *  tree-PLRU bit walk stays out of line. FIFO and Random do not
     *  react to touches. */
    void
    touch(unsigned set, unsigned way)
    {
        if (cparams.repl == ReplKind::LRU)
            stamps[static_cast<size_t>(set) * cparams.assoc + way] =
                ++clock;
        else if (cparams.repl == ReplKind::TreePLRU)
            touchTree(set, way);
    }

    CacheParams cparams;
    unsigned sets;
    unsigned setBits;       //!< log2(sets), the Xor fold distance
    unsigned indexablesets; //!< Mersenne hashing maps into [0, prime)
    /** 2^64 / indexablesets rounded up (Mersenne remainder). */
    uint64_t primeReciprocal;
    std::vector<Line> lines;      //!< sets x assoc
    /** LRU / FIFO ordering stamps, sets x assoc (flat: one allocation
     *  instead of a heap vector per set). */
    std::vector<uint32_t> stamps;
    std::vector<uint32_t> treeBits;   //!< tree-PLRU state per set
    std::vector<Line> victim;     //!< fully associative victim buffer
    std::vector<uint32_t> victimStamp;
    uint32_t clock = 0;
    Rng rng;
    CacheStats cstats;
};

/** @return largest prime <= n (used by Mersenne-modulo indexing). */
unsigned largestPrimeAtMost(unsigned n);

} // namespace raceval::cache

#endif // RACEVAL_CACHE_CACHE_HH
