/** @file Unit tests for the common substrate (rng, pool, strings). */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <set>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/str.hh"
#include "common/thread_pool.hh"

using namespace raceval;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, WeightedRespectsZeroWeight)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(rng.nextWeighted({0.0, 1.0, 1.0}), 0u);
}

TEST(Rng, WeightedApproximatesRatio)
{
    Rng rng(17);
    int counts[2] = {0, 0};
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.nextWeighted({1.0, 3.0})];
    EXPECT_NEAR(double(counts[1]) / counts[0], 3.0, 0.3);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(19);
    auto perm = rng.permutation(100);
    std::set<size_t> unique(perm.begin(), perm.end());
    EXPECT_EQ(unique.size(), 100u);
    EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(ThreadPool, ParallelForHitsEveryIndex)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(500, [&](size_t i) { hits[i]++; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksLargeRanges)
{
    // Regression for the chunked parallelFor: with n >> threads every
    // index must still be visited exactly once, including the ragged
    // final chunk.
    ThreadPool pool(3);
    const size_t n = 100003; // prime: never divides evenly into chunks
    std::vector<std::atomic<uint8_t>> hits(n);
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(n, [&](size_t i) {
        hits[i]++;
        sum += i;
    });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(sum.load(), uint64_t{n} * (n - 1) / 2);
}

TEST(ThreadPool, ParallelForSmallerThanPool)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](size_t i) { hits[i]++; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunAllDrainsBatch)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([&count] { count++; });
    pool.runAll(std::move(tasks));
    EXPECT_EQ(count.load(), 64);
}

#ifdef __linux__
TEST(ThreadPool, DefaultSizeFollowsAffinity)
{
    // A thread pinned to one CPU (as under `taskset -c N`) gets one
    // worker by default, however many CPUs the host has.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    size_t pinned = ThreadPool().size();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
}
#endif

TEST(Str, SplitJoinRoundTrip)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(Str, BitHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(68));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(Str, Format)
{
    EXPECT_EQ(strprintf("x=%d %s", 5, "y"), "x=5 y");
    EXPECT_EQ(padTo("ab", 4), "ab  ");
    EXPECT_EQ(toLower("MiXeD"), "mixed");
}
