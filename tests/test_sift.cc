/** @file SIFT record/replay round-trip tests. */

#include <gtest/gtest.h>

#include "sift/sift.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"

using namespace raceval;

namespace
{

// Property: replay reproduces the live stream exactly.
class SiftRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(SiftRoundTrip, StreamIdentical)
{
    const ubench::UbenchInfo *info = ubench::find(GetParam());
    ASSERT_NE(info, nullptr);
    isa::Program prog = info->builder(20000, true);

    vm::FunctionalCore live(prog);
    std::vector<uint8_t> bytes = sift::encodeTrace(prog, live);
    sift::SiftReader replay(std::move(bytes));

    live.reset();
    vm::DynInst a, b;
    uint64_t count = 0;
    while (live.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "trace ended early at " << count;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.inst.op, b.inst.op);
        ASSERT_EQ(a.memAddr, b.memAddr);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.nextPc, b.nextPc);
        ++count;
    }
    EXPECT_FALSE(replay.next(b));
    EXPECT_EQ(replay.instCount(), count);
}

INSTANTIATE_TEST_SUITE_P(Ubenches, SiftRoundTrip,
                         ::testing::Values("MC", "CCh", "CS1", "DP1d",
                                           "MM", "STc", "CRf"));

TEST(Sift, ResetRewinds)
{
    isa::Program prog = ubench::find("CCe")->builder(5000, true);
    vm::FunctionalCore live(prog);
    sift::SiftReader reader(sift::encodeTrace(prog, live));
    vm::DynInst d;
    uint64_t first = 0;
    while (reader.next(d))
        ++first;
    reader.reset();
    uint64_t second = 0;
    while (reader.next(d))
        ++second;
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, reader.instCount());
}

TEST(Sift, FileRoundTrip)
{
    isa::Program prog = ubench::find("MD")->builder(3000, true);
    vm::FunctionalCore live(prog);
    std::string path = ::testing::TempDir() + "/md.sift";
    sift::writeTrace(path, prog, live);
    sift::SiftReader reader(path);
    EXPECT_EQ(reader.name(), "MD");
    EXPECT_GT(reader.instCount(), 1000u);
    std::remove(path.c_str());
}

TEST(Sift, EmbedsProgramAndData)
{
    isa::Program prog = ubench::find("MM")->builder(9000, true);
    vm::FunctionalCore live(prog);
    sift::SiftReader reader(sift::encodeTrace(prog, live));
    ASSERT_NE(reader.program(), nullptr);
    EXPECT_EQ(reader.program()->code.size(), prog.code.size());
    EXPECT_EQ(reader.program()->data.size(), prog.data.size());
}

TEST(Sift, LargeTraceRoundTrip)
{
    // A >= 1M instruction record/replay round trip must stay
    // byte-identical (memory deltas and branch targets accumulate over
    // the whole stream, so any drift shows).
    isa::Program prog = ubench::find("MC")->builder(1200000, true);
    vm::FunctionalCore live(prog);
    std::vector<uint8_t> bytes = sift::encodeTrace(prog, live);
    sift::SiftReader replay(std::move(bytes));
    ASSERT_GE(replay.instCount(), 1000000u);

    live.reset();
    vm::DynInst a, b;
    uint64_t count = 0;
    while (live.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "trace ended early at " << count;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.memAddr, b.memAddr);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.nextPc, b.nextPc);
        ++count;
    }
    EXPECT_FALSE(replay.next(b));
    EXPECT_EQ(replay.instCount(), count);
}

TEST(Sift, CompressionIsCompact)
{
    isa::Program prog = ubench::find("EI")->builder(50000, true);
    vm::FunctionalCore live(prog);
    std::vector<uint8_t> bytes = sift::encodeTrace(prog, live);
    // ALU-only benches need no per-instruction event bytes: the trace
    // must be far smaller than one byte per instruction.
    EXPECT_LT(bytes.size(), 20000u);
}

} // namespace
