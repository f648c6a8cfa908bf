/**
 * @file
 * Hardware prefetcher models: next-line, per-pc stride (Fu et al.,
 * MICRO 1992) and a global history buffer delta-correlation prefetcher
 * (Nesbit & Smith, HPCA 2004) -- the two families the paper adds to
 * Sniper for the tuner to choose from.
 */

#ifndef RACEVAL_CACHE_PREFETCH_HH
#define RACEVAL_CACHE_PREFETCH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/params.hh"

namespace raceval::cache
{

/**
 * Prefetcher interface. Observes demand accesses (line addresses) and
 * proposes line addresses to fetch ahead.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one demand access.
     *
     * @param pc the accessing instruction.
     * @param line_addr accessed line address (byte addr / line size).
     * @param miss true when the access missed.
     * @param[out] out line addresses to prefetch (appended).
     */
    virtual void observe(uint64_t pc, uint64_t line_addr, bool miss,
                         std::vector<uint64_t> &out) = 0;

    /** Forget learned state. */
    virtual void reset() = 0;
};

/** Prefetch next N sequential lines on every miss. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree) : degree(degree) {}
    void observe(uint64_t pc, uint64_t line_addr, bool miss,
                 std::vector<uint64_t> &out) override;
    void reset() override {}

  private:
    unsigned degree;
};

/**
 * Per-pc stride detector: confirms a stride after two repeats, then
 * prefetches degree lines ahead along the stride.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    StridePrefetcher(unsigned entries, unsigned degree);
    void observe(uint64_t pc, uint64_t line_addr, bool miss,
                 std::vector<uint64_t> &out) override;
    void reset() override;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t lastLine = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
        bool valid = false;
    };
    std::vector<Entry> table;
    unsigned degree;
};

/**
 * GHB G/DC: a circular global history buffer of miss line addresses,
 * indexed by pc. On a miss, the last two deltas for this pc are matched
 * against history to predict the upcoming delta chain.
 */
class GhbPrefetcher : public Prefetcher
{
  public:
    GhbPrefetcher(unsigned ghb_entries, unsigned index_entries,
                  unsigned degree);
    void observe(uint64_t pc, uint64_t line_addr, bool miss,
                 std::vector<uint64_t> &out) override;
    void reset() override;

  private:
    struct GhbEntry
    {
        uint64_t lineAddr = 0;
        /** Absolute sequence number of this entry (detects overwrite). */
        uint64_t seq = 0;
        /** Sequence of the previous same-pc entry (-1 = none). */
        int64_t prevSeq = -1;
        bool valid = false;
    };
    std::vector<GhbEntry> ghb;
    std::vector<int64_t> indexTable; //!< pc hash -> newest sequence
    uint64_t written = 0;            //!< total entries ever written
    unsigned degree;

    /** Misses of one pc the delta correlation reads. */
    static constexpr unsigned historyDepth = 3;

    /**
     * Walk the pc chain, newest first, into @p lines.
     * @return how many recent line addresses were found.
     */
    unsigned history(uint64_t pc,
                     std::array<uint64_t, historyDepth> &lines) const;
};

/** Factory from CacheParams; returns nullptr for PrefetchKind::None. */
std::unique_ptr<Prefetcher> makePrefetcher(const CacheParams &params);

} // namespace raceval::cache

#endif // RACEVAL_CACHE_PREFETCH_HH
