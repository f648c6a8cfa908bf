/** @file Cache, prefetcher, DRAM, in-flight table and hierarchy tests. */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/dram.hh"
#include "cache/hierarchy.hh"
#include "cache/prefetch.hh"
#include "common/rng.hh"
#include "scenario/scenario.hh"

using namespace raceval;
using namespace raceval::cache;

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 4 * KiB;
    p.assoc = 2;
    p.lineBytes = 64;
    p.latency = 2;
    return p;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.lookup(100, false).hit);
    cache.fill(100, false, false);
    EXPECT_TRUE(cache.lookup(100, false).hit);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    CacheParams p = smallCache(); // 32 sets, 2 ways
    Cache cache(p);
    // Three lines mapping to set 0 (stride = numSets).
    uint64_t a = 0, b = 32, c = 64;
    cache.fill(a, false, false);
    cache.fill(b, false, false);
    cache.lookup(a, false);      // a is now MRU
    cache.fill(c, false, false); // must evict b
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, FifoIgnoresTouches)
{
    CacheParams p = smallCache();
    p.repl = ReplKind::FIFO;
    Cache cache(p);
    uint64_t a = 0, b = 32, c = 64;
    cache.fill(a, false, false);
    cache.fill(b, false, false);
    cache.lookup(a, false);      // FIFO does not care
    cache.fill(c, false, false); // evicts a (first in)
    EXPECT_FALSE(cache.probe(a));
    EXPECT_TRUE(cache.probe(b));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(smallCache());
    cache.fill(0, false, true); // dirty fill
    cache.fill(32, false, false);
    auto fill = cache.fill(64, false, false);
    EXPECT_TRUE(fill.evictedValid);
    EXPECT_TRUE(fill.evictedDirty);
    EXPECT_EQ(fill.evictedLine, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, VictimBufferCatchesConflicts)
{
    CacheParams p = smallCache();
    p.victimEntries = 4;
    Cache cache(p);
    cache.fill(0, false, false);
    cache.fill(32, false, false);
    cache.fill(64, false, false); // evicts one into the victim buffer
    // The evicted line still "hits" via the victim buffer.
    LookupResult r = cache.lookup(0, false);
    if (!r.hit)
        r = cache.lookup(32, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.victimHit);
    EXPECT_EQ(cache.stats().victimHits, 1u);
}

TEST(Cache, PrefetchUsefulnessCounted)
{
    Cache cache(smallCache());
    cache.fill(5, true, false);
    EXPECT_EQ(cache.stats().prefetchIssued, 1u);
    LookupResult r = cache.lookup(5, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.prefetchedLine);
    EXPECT_EQ(cache.stats().prefetchUseful, 1u);
    // Second demand hit no longer counts as prefetch-useful.
    r = cache.lookup(5, false);
    EXPECT_FALSE(r.prefetchedLine);
}

// Hash x replacement sweep: the cache must behave sanely (fills are
// findable, set index stays in range) under every combination.
class CacheConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheConfigSweep, FillsAreFindable)
{
    CacheParams p = smallCache();
    p.hash = static_cast<HashKind>(std::get<0>(GetParam()));
    p.repl = static_cast<ReplKind>(std::get<1>(GetParam()));
    Cache cache(p, 7);
    for (uint64_t line = 0; line < 400; line += 7) {
        cache.fill(line, false, false);
        EXPECT_TRUE(cache.probe(line));
        EXPECT_LT(cache.setIndex(line), p.numSets());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CacheConfigSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 4)));

TEST(Cache, XorHashSpreadsConflictStride)
{
    // Lines at stride = numSets collide under mask indexing but spread
    // under xor folding: the MC micro-benchmark in miniature.
    CacheParams mask = smallCache();
    CacheParams xored = smallCache();
    xored.hash = HashKind::Xor;
    Cache cm(mask), cx(xored);
    unsigned sets = mask.numSets();
    std::set<unsigned> mask_sets, xor_sets;
    for (uint64_t k = 0; k < 8; ++k) {
        mask_sets.insert(cm.setIndex(k * sets));
        xor_sets.insert(cx.setIndex(k * sets));
    }
    EXPECT_EQ(mask_sets.size(), 1u);
    EXPECT_GT(xor_sets.size(), 4u);
}

TEST(Cache, MersennePrimeHelper)
{
    EXPECT_EQ(largestPrimeAtMost(64), 61u);
    EXPECT_EQ(largestPrimeAtMost(128), 127u);
    EXPECT_EQ(largestPrimeAtMost(2), 2u);
}

// The raced spaces race the hash, not the geometry: every (size,
// assoc, line) a race can build is a target's public-info level or
// its hidden board's. On each, the precomputed Xor fold distance and
// the reciprocal Mersenne remainder must equal the reference formula,
// below 2^32 and above it.
TEST(Cache, SetIndexMatchesReferenceOnTargetGeometries)
{
    std::vector<CacheParams> geometries;
    for (const scenario::TargetBoard &target : scenario::targets()) {
        for (const HierarchyParams &mem :
             {target.publicInfo().mem, target.secret().core.mem}) {
            for (const CacheParams *level : {&mem.l1i, &mem.l1d, &mem.l2})
                geometries.push_back(*level);
        }
    }
    Rng rng(7);
    std::vector<uint64_t> lines = {0, 1, 60, 61, 62, 0xfffffffeull,
                                   0xffffffffull, 1ull << 32,
                                   (1ull << 32) + 1, ~0ull - 1, ~0ull};
    for (int i = 0; i < 3000; ++i) {
        uint64_t r = rng.next();
        lines.push_back(r);
        lines.push_back(r >> 32);
        lines.push_back(r >> rng.nextBelow(64));
    }
    for (CacheParams geometry : geometries) {
        unsigned sets = geometry.numSets();
        unsigned bits = floorLog2(sets);
        unsigned prime = largestPrimeAtMost(sets);
        for (HashKind hash :
             {HashKind::Mask, HashKind::Xor, HashKind::Mersenne}) {
            geometry.hash = hash;
            Cache cache(geometry);
            for (uint64_t line : lines) {
                uint64_t want = line & (sets - 1);
                if (hash == HashKind::Xor)
                    want = (line ^ (line >> bits) ^ (line >> (2 * bits)))
                        & (sets - 1);
                else if (hash == HashKind::Mersenne)
                    want = line % prime;
                ASSERT_EQ(cache.setIndex(line), want)
                    << geometry.name << " " << geometry.sizeBytes << "B/"
                    << geometry.assoc << "-way hash "
                    << static_cast<int>(hash) << " line " << line;
            }
        }
    }
}

namespace
{

/** @return @p n random lines whose probe chains start at @p slot. */
std::vector<uint64_t>
linesHomedAt(const InFlightTable &table, size_t slot, size_t n, Rng &rng)
{
    std::vector<uint64_t> lines;
    while (lines.size() < n) {
        uint64_t line = rng.next();
        if (table.homeSlot(line) == slot)
            lines.push_back(line);
    }
    return lines;
}

/**
 * One random assign or take of a pool line on the table and on the
 * oracle map, then compare the results and the sizes.
 */
::testing::AssertionResult
stepBoth(InFlightTable &table, std::unordered_map<uint64_t, uint64_t> &oracle,
         const std::vector<uint64_t> &pool, unsigned assign_pct, Rng &rng)
{
    uint64_t line = pool[rng.nextBelow(pool.size())];
    if (rng.nextBelow(100) < assign_pct) {
        uint64_t ready = rng.next();
        table.assign(line, ready);
        oracle[line] = ready;
    } else {
        std::optional<uint64_t> got = table.take(line);
        auto it = oracle.find(line);
        if (got.has_value() != (it != oracle.end()))
            return ::testing::AssertionFailure()
                << "take(" << line << ") presence differs";
        if (got) {
            if (*got != it->second)
                return ::testing::AssertionFailure()
                    << "take(" << line << ") = " << *got << " want "
                    << it->second;
            oracle.erase(it);
        }
    }
    if (table.size() != oracle.size())
        return ::testing::AssertionFailure()
            << "size " << table.size() << " want " << oracle.size();
    return ::testing::AssertionSuccess();
}

} // namespace

// Differential test of the hierarchy's in-flight prefetch table
// against std::unordered_map: random assign / take / size / clear
// sequences, growth past the hierarchy's 4096-entry clear point,
// deletions inside probe chains that wrap from the last slot to the
// first, and the one line address that doubles as the empty marker.
TEST(InFlightTable, MatchesUnorderedMapOracle)
{
    Rng rng(2019);
    InFlightTable table;
    std::unordered_map<uint64_t, uint64_t> oracle;

    auto wrapPool = [&] {
        // Four lines homed at each of the last two slots and the first
        // one: their chains overlap and wrap.
        size_t cap = table.capacity();
        std::vector<uint64_t> pool;
        for (size_t slot : {cap - 2, cap - 1, size_t{0}}) {
            std::vector<uint64_t> homed = linesHomedAt(table, slot, 4, rng);
            pool.insert(pool.end(), homed.begin(), homed.end());
        }
        return pool;
    };

    // Small table, wrapped chains only.
    std::vector<uint64_t> pool = wrapPool();
    for (int i = 0; i < 20000; ++i)
        ASSERT_TRUE(stepBoth(table, oracle, pool, 55, rng)) << "step " << i;

    // Grow well past 4096 entries: random lines, a dense run of small
    // ones, the empty-marker line and the wrapped lines.
    for (int i = 0; i < 12000; ++i)
        pool.push_back(rng.next() >> rng.nextBelow(40));
    for (uint64_t line = 0; line < 64; ++line)
        pool.push_back(line);
    pool.push_back(~0ull);
    size_t peak = 0;
    for (int i = 0; i < 40000; ++i) {
        ASSERT_TRUE(stepBoth(table, oracle, pool, 80, rng)) << "grow " << i;
        peak = std::max(peak, table.size());
    }
    EXPECT_GT(peak, 4096u);

    // Churn at the grown capacity, with wrapped chains at its end and
    // occasional clears.
    std::vector<uint64_t> wrapped = wrapPool();
    pool.insert(pool.end(), wrapped.begin(), wrapped.end());
    for (int i = 0; i < 100000; ++i) {
        if (rng.nextBelow(20000) == 0) {
            table.clear();
            oracle.clear();
            ASSERT_EQ(table.size(), 0u);
        }
        unsigned assign_pct = i % 20000 < 10000 ? 70 : 35;
        ASSERT_TRUE(stepBoth(table, oracle, pool, assign_pct, rng))
            << "churn " << i;
    }

    // A cleared table keeps nothing, the empty-marker line included.
    table.assign(~0ull, 5);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.take(~0ull).has_value());
    for (uint64_t line : pool)
        EXPECT_FALSE(table.take(line).has_value());
}

TEST(Prefetch, StrideDetectsAfterConfidence)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < 5; ++i) {
        out.clear();
        pf.observe(0x400, 100 + i * 3, true, out);
    }
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 100 + 4 * 3 + 3);
    EXPECT_EQ(out[1], 100 + 4 * 3 + 6);
}

TEST(Prefetch, StrideIgnoresRandom)
{
    StridePrefetcher pf(16, 2);
    std::vector<uint64_t> out;
    uint64_t addrs[] = {5, 900, 17, 4242, 33, 777};
    for (uint64_t addr : addrs)
        pf.observe(0x400, addr, true, out);
    EXPECT_TRUE(out.empty());
}

TEST(Prefetch, GhbLearnsDeltaChain)
{
    GhbPrefetcher pf(64, 64, 2);
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < 6; ++i) {
        out.clear();
        pf.observe(0x80, 1000 + i * 5, true, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 1000 + 5 * 5 + 5);
}

TEST(Prefetch, NextLineOnMissOnly)
{
    NextLinePrefetcher pf(1);
    std::vector<uint64_t> out;
    pf.observe(0, 50, false, out);
    EXPECT_TRUE(out.empty());
    pf.observe(0, 50, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 51u);
}

TEST(Dram, BandwidthQueuesBackToBack)
{
    DramParams p;
    p.latency = 100;
    p.cyclesPerLine = 10;
    DramModel dram(p);
    EXPECT_EQ(dram.access(0), 100u);       // idle channel
    EXPECT_EQ(dram.access(0), 110u);       // queued behind the first
    EXPECT_EQ(dram.access(1000), 100u);    // idle again
    EXPECT_EQ(dram.readCount(), 3u);
}

namespace
{

HierarchyParams
tinyHierarchy()
{
    HierarchyParams h;
    h.l1i = CacheParams{};
    h.l1i.name = "l1i";
    h.l1i.sizeBytes = 4 * KiB;
    h.l1i.assoc = 2;
    h.l1i.latency = 1;
    h.l1d = h.l1i;
    h.l1d.name = "l1d";
    h.l1d.latency = 2;
    h.l2 = h.l1i;
    h.l2.name = "l2";
    h.l2.sizeBytes = 32 * KiB;
    h.l2.assoc = 4;
    h.l2.latency = 10;
    h.dram.latency = 100;
    h.dram.cyclesPerLine = 4;
    return h;
}

} // namespace

TEST(Hierarchy, LatencyLayering)
{
    MemoryHierarchy mem(tinyHierarchy());
    // Cold: memory access.
    AccessResult r = mem.access(0, 0x10000, false, false, 0);
    EXPECT_EQ(r.servedBy, ServedBy::Memory);
    EXPECT_GE(r.latency, 112u);
    // Warm L1.
    r = mem.access(0, 0x10000, false, false, 10);
    EXPECT_EQ(r.servedBy, ServedBy::L1);
    EXPECT_EQ(r.latency, 2u);
}

TEST(Hierarchy, L2HoldsL1Evictions)
{
    MemoryHierarchy mem(tinyHierarchy());
    // Stream enough lines to overflow L1 (4K) but not L2 (32K).
    for (uint64_t addr = 0; addr < 16 * KiB; addr += 64)
        mem.access(0, addr, false, false, addr);
    AccessResult r = mem.access(0, 0, false, false, 1 << 20);
    EXPECT_EQ(r.servedBy, ServedBy::L2);
}

TEST(Hierarchy, TimedPrefetchDelaysEagerUse)
{
    HierarchyParams h = tinyHierarchy();
    h.l1d.prefetch = PrefetchKind::NextLine;
    h.l1d.prefetchDegree = 1;
    h.timedPrefetch = true;
    MemoryHierarchy mem(h);
    mem.access(0, 0 * 64, false, false, 0);   // miss, prefetches line 1
    // Immediate use of the prefetched line waits for the in-flight
    // fill; much later use is a plain L1 hit.
    AccessResult eager = mem.access(0, 1 * 64, false, false, 1);
    HierarchyParams h2 = h;
    MemoryHierarchy mem2(h2);
    mem2.access(0, 0 * 64, false, false, 0);
    AccessResult patient = mem2.access(0, 1 * 64, false, false, 10000);
    EXPECT_GT(eager.latency, patient.latency);
    EXPECT_EQ(patient.latency, h.l1d.latency);
}

TEST(Hierarchy, InstructionSideRouted)
{
    MemoryHierarchy mem(tinyHierarchy());
    mem.access(0, 0x500, false, true, 0);
    EXPECT_EQ(mem.l1i().stats().accesses, 1u);
    EXPECT_EQ(mem.l1d().stats().accesses, 0u);
}

namespace
{

DramParams
testDram()
{
    DramParams p;
    p.latency = 100;
    p.cyclesPerLine = 10;
    return p;
}

} // namespace

TEST(Dram, IdleChannelIsFlatLatency)
{
    DramModel dram(testDram());
    EXPECT_EQ(dram.access(0), 100u);
    // Channel free again at cycle 10; a later fetch sees no queueing.
    EXPECT_EQ(dram.access(50), 100u);
    EXPECT_EQ(dram.readCount(), 2u);
}

TEST(Dram, BackToBackFetchesQueue)
{
    DramModel dram(testDram());
    EXPECT_EQ(dram.access(0), 100u);
    // Issued while the channel is busy until cycle 10: 5 cycles of
    // queueing delay on top of the flat latency.
    EXPECT_EQ(dram.access(5), 105u);
    // Third fetch at the same cycle waits for both transfers.
    EXPECT_EQ(dram.access(5), 115u);
}

TEST(Dram, WritebackOccupiesChannelButNobodyWaits)
{
    DramModel dram(testDram());
    dram.writeback(0);
    EXPECT_EQ(dram.writeCount(), 1u);
    EXPECT_EQ(dram.readCount(), 0u);
    // The writeback reserved cycles 0-10, delaying the demand fetch.
    EXPECT_EQ(dram.access(0), 110u);
}

TEST(Dram, BusyCyclesTrackTransfers)
{
    DramModel dram(testDram());
    dram.access(0);
    dram.access(0);
    dram.writeback(0);
    EXPECT_EQ(dram.busyCycles(), 30u);
    EXPECT_EQ(dram.nextFreeCycle(), 30u);
}

TEST(Dram, ResetForgetsQueueAndCounters)
{
    DramModel dram(testDram());
    dram.access(0);
    dram.writeback(0);
    dram.reset();
    EXPECT_EQ(dram.readCount(), 0u);
    EXPECT_EQ(dram.writeCount(), 0u);
    EXPECT_EQ(dram.busyCycles(), 0u);
    // No residual queueing from before the reset.
    EXPECT_EQ(dram.access(0), 100u);
}
