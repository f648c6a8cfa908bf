/** @file
 * Cross-cutting property tests: instruction-mix characteristics of
 * the workload stand-ins, disassembler golden strings, SIFT
 * robustness against malformed input (header death tests and a
 * deterministic hostile corpus), and cache geometry sweeps.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <vector>

#include "cache/cache.hh"
#include "isa/assembler.hh"
#include "sift/sift.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"
#include "workload/workload.hh"

using namespace raceval;

namespace
{

/** Fraction of dynamic instructions per timing class. */
std::array<double, isa::numOpClasses>
classMix(const isa::Program &prog)
{
    std::array<uint64_t, isa::numOpClasses> counts{};
    vm::FunctionalCore core(prog);
    vm::DynInst dyn;
    uint64_t total = 0;
    while (core.next(dyn)) {
        ++counts[static_cast<size_t>(dyn.inst.cls)];
        ++total;
    }
    std::array<double, isa::numOpClasses> mix{};
    for (size_t i = 0; i < mix.size(); ++i)
        mix[i] = static_cast<double>(counts[i])
            / static_cast<double>(total);
    return mix;
}

double
fpFraction(const std::array<double, isa::numOpClasses> &mix)
{
    double fp = 0.0;
    for (size_t i = 0; i < mix.size(); ++i) {
        if (isa::isFpClass(static_cast<isa::OpClass>(i)))
            fp += mix[i];
    }
    return fp;
}

double
classFrac(const std::array<double, isa::numOpClasses> &mix,
          isa::OpClass cls)
{
    return mix[static_cast<size_t>(cls)];
}

} // namespace

TEST(WorkloadMix, FpBenchesAreFpHeavy)
{
    auto povray = classMix(workload::build(*workload::find("povray")));
    auto deepsjeng =
        classMix(workload::build(*workload::find("deepsjeng")));
    EXPECT_GT(fpFraction(povray), 0.3);
    EXPECT_LT(fpFraction(deepsjeng), 0.02);
}

TEST(WorkloadMix, X264UsesSimd)
{
    auto x264 = classMix(workload::build(*workload::find("x264")));
    double simd = classFrac(x264, isa::OpClass::SimdAdd)
        + classFrac(x264, isa::OpClass::SimdMul);
    EXPECT_GT(simd, 0.15);
}

TEST(WorkloadMix, XalancbmkIsIndirectBranchHeavy)
{
    auto xal = classMix(workload::build(*workload::find("xalancbmk")));
    EXPECT_GT(classFrac(xal, isa::OpClass::BranchIndirect), 0.02);
    auto mcf = classMix(workload::build(*workload::find("mcf")));
    EXPECT_LT(classFrac(mcf, isa::OpClass::BranchIndirect), 0.001);
}

TEST(WorkloadMix, EveryWorkloadTouchesMemory)
{
    for (const auto &info : workload::all()) {
        auto mix = classMix(workload::build(info));
        EXPECT_GT(classFrac(mix, isa::OpClass::Load), 0.01)
            << info.name;
    }
}

TEST(UbenchMix, CategoriesMatchContent)
{
    // Store-intensive benches are dominated by stores; control
    // benches by branches; data-parallel by FP/SIMD.
    auto stc = classMix(ubench::build(*ubench::find("STc")));
    EXPECT_GT(classFrac(stc, isa::OpClass::Store), 0.5);
    auto cch = classMix(ubench::build(*ubench::find("CCh")));
    EXPECT_GT(classFrac(cch, isa::OpClass::BranchCond), 0.15);
    auto dp = classMix(ubench::build(*ubench::find("DP1d")));
    EXPECT_GT(fpFraction(dp), 0.15);
    auto ed1 = classMix(ubench::build(*ubench::find("ED1")));
    EXPECT_GT(classFrac(ed1, isa::OpClass::FpAdd), 0.7);
}

TEST(Disassembler, GoldenStrings)
{
    EXPECT_EQ(isa::disassemble(isa::encodeR(isa::Opcode::Add, 1, 2, 3)),
              "add x1, x2, x3");
    EXPECT_EQ(isa::disassemble(
                  isa::encodeI(isa::Opcode::Addi, 4, 5, -7)),
              "addi x4, x5, #-7");
    EXPECT_EQ(isa::disassemble(isa::encodeR(isa::Opcode::Fadd, 1, 2, 3)),
              "fadd d1, d2, d3");
    EXPECT_EQ(isa::disassemble(isa::encodeNone(isa::Opcode::Halt)),
              "halt");
    EXPECT_EQ(isa::disassemble(0xffffffffu).substr(0, 5), ".word");
}

TEST(Sift, RejectsGarbageMagic)
{
    std::vector<uint8_t> junk(64, 0x5a);
    EXPECT_DEATH(
        { sift::SiftReader reader(std::move(junk)); }, "bad magic");
}

namespace
{

void
putVarint(std::vector<uint8_t> &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

/** Sift bytes: magic, then @p fields as LEB128 varints, then 16
 *  zero bytes of payload. */
std::vector<uint8_t>
siftHeader(std::initializer_list<uint64_t> fields)
{
    std::vector<uint8_t> out = {'R', 'V', 'S', 'I', 'F', 'T', '0', '1'};
    for (uint64_t value : fields)
        putVarint(out, value);
    out.resize(out.size() + 16, 0);
    return out;
}

} // namespace

// Length fields near 2^64 must not wrap the bounds checks: each
// oversized field is rejected as truncated, not handed to an
// allocation that throws.
TEST(Sift, RejectsOversizedNameLength)
{
    std::vector<uint8_t> bytes = siftHeader({~uint64_t{0} - 3});
    EXPECT_DEATH({ sift::SiftReader reader(std::move(bytes)); },
                 "truncated name");
}

TEST(Sift, RejectsOversizedCodeWordCount)
{
    // name "", codeBase 0, code_words 2^62 (4 * 2^62 wraps to 0).
    std::vector<uint8_t> bytes = siftHeader({0, 0, uint64_t{1} << 62});
    EXPECT_DEATH({ sift::SiftReader reader(std::move(bytes)); },
                 "truncated code");
}

TEST(Sift, RejectsOversizedDataSegmentLength)
{
    // name "", codeBase 0, no code, one segment at 0 of length 2^64-1.
    std::vector<uint8_t> bytes = siftHeader({0, 0, 0, 1, 0, ~uint64_t{0}});
    EXPECT_DEATH({ sift::SiftReader reader(std::move(bytes)); },
                 "truncated data seg");
}

TEST(Sift, TolerantOfEmptyPrograms)
{
    isa::Assembler a("empty");
    a.halt();
    isa::Program prog = a.finish();
    vm::FunctionalCore src(prog);
    sift::SiftReader reader(sift::encodeTrace(prog, src));
    EXPECT_EQ(reader.instCount(), 1u);
    vm::DynInst dyn;
    EXPECT_TRUE(reader.next(dyn));
    EXPECT_EQ(dyn.inst.op, isa::Opcode::Halt);
    EXPECT_FALSE(reader.next(dyn));
}

// ------------------------------------------- sift hostile-input corpus

namespace
{

/** A small real trace: a load/store loop over a data segment, so the
 *  event stream carries memory deltas and taken and not-taken
 *  branches. */
isa::Program
corpusProgram()
{
    isa::Assembler a("corpus");
    a.loadImm(1, 0x20000);
    a.movz(2, 5);
    a.label("loop");
    a.ldr(3, 1, 0);
    a.addi(3, 3, 1);
    a.str(3, 1, 8);
    a.addi(1, 1, 16);
    a.subi(2, 2, 1);
    a.cbnz(2, "loop");
    a.halt();
    isa::Program prog = a.finish();
    prog.addData(0x20000, std::vector<uint8_t>(16, 7));
    return prog;
}

std::vector<uint8_t>
encode(const isa::Program &prog)
{
    vm::FunctionalCore live(prog);
    return sift::encodeTrace(prog, live);
}

/** Parse and drain a trace, then exit 0 (run in a death-test child). */
[[noreturn]] void
replayToEnd(std::vector<uint8_t> bytes)
{
    sift::SiftReader reader(std::move(bytes));
    vm::DynInst dyn;
    while (reader.next(dyn)) {
    }
    std::exit(0);
}

/** The child replayed to the end (exit 0) or panicked (abort). A
 *  sanitizer finding exits 1 and fails the case. */
bool
replayedOrPanicked(int status)
{
    return (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        || (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
}

/** The header encodeTrace lays down for @p prog (layout in sift.hh):
 *  everything before the event stream. */
std::vector<uint8_t>
headerOf(const isa::Program &prog, uint64_t inst_count)
{
    std::vector<uint8_t> out = {'R', 'V', 'S', 'I', 'F', 'T', '0', '1'};
    putVarint(out, prog.name.size());
    out.insert(out.end(), prog.name.begin(), prog.name.end());
    putVarint(out, prog.codeBase);
    putVarint(out, prog.code.size());
    for (uint32_t word : prog.code) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
    putVarint(out, prog.data.size());
    for (const auto &segment : prog.data) {
        putVarint(out, segment.base);
        putVarint(out, segment.bytes.size());
        out.insert(out.end(), segment.bytes.begin(), segment.bytes.end());
    }
    putVarint(out, inst_count);
    return out;
}

} // namespace

// Every prefix of a real trace either replays in full or ends in a
// "sift:" panic: truncation never reads past the buffer.
TEST(SiftCorpus, TruncationAtEveryOffset)
{
    const std::vector<uint8_t> bytes = encode(corpusProgram());
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + static_cast<long>(len));
        EXPECT_EXIT(replayToEnd(cut), replayedOrPanicked,
                    "^$|panic: .*sift: ")
            << "truncated to " << len << " of " << bytes.size();
    }
}

// Every single-bit flip of the event stream either replays in full (a
// wild address or taken flag is still a valid trace) or ends in a
// "sift:" panic.
TEST(SiftCorpus, EveryEventBitFlip)
{
    const isa::Program prog = corpusProgram();
    const std::vector<uint8_t> bytes = encode(prog);
    uint64_t insts = sift::SiftReader(std::vector<uint8_t>(bytes))
                         .instCount();
    const std::vector<uint8_t> header = headerOf(prog, insts);
    ASSERT_LT(header.size(), bytes.size());
    ASSERT_TRUE(std::equal(header.begin(), header.end(), bytes.begin()));
    const size_t events = header.size();
    for (size_t pos = events; pos < bytes.size(); ++pos) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = bytes;
            flipped[pos] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_EXIT(replayToEnd(flipped), replayedOrPanicked,
                        "^$|panic: .*sift: ")
                << "bit " << bit << " of byte " << pos;
        }
    }
}

// A branch delta of 2^63 - 1 words must not overflow `4 * delta`:
// deltas wrap modulo 2^64, so the target lands before the code and the
// replay panics on the out-of-range pc.
TEST(SiftCorpus, HugeBranchDeltaPanicsWithoutOverflow)
{
    isa::Assembler a("b-next");
    a.b("next");
    a.label("next");
    a.halt();
    isa::Program prog = a.finish();
    std::vector<uint8_t> bytes = encode(prog);
    // Events: taken byte 1, then zigzag(+1 word) == 2, last in the trace.
    ASSERT_EQ(bytes.size(), headerOf(prog, 2).size() + 2);
    ASSERT_EQ(bytes.back(), 2u);
    bytes.pop_back();
    putVarint(bytes, 0xfffffffffffffffeull); // zigzag(INT64_MAX)
    EXPECT_EXIT(replayToEnd(bytes), ::testing::KilledBySignal(SIGABRT),
                "sift: replay pc .* out of range");
}

// Address pairs whose difference overflows int64_t round-trip through
// both recorded forms: sift and the packed trace.
TEST(SiftCorpus, WideAddressJumpsRoundTrip)
{
    isa::Assembler a("wide");
    a.loadImm(1, 0x100);
    a.loadImm(2, 0x8000000000000000ull);
    a.ldr(3, 1, 0);
    a.ldr(3, 2, 0);
    a.ldr(3, 1, 0);
    a.halt();
    isa::Program prog = a.finish();
    vm::FunctionalCore live(prog);
    sift::SiftReader sift_replay(sift::encodeTrace(prog, live));
    vm::PackedTrace packed = vm::PackedTrace::build(prog, live);
    vm::PackedCursor packed_replay(packed);

    live.reset();
    vm::DynInst want, from_sift, from_packed;
    uint64_t loads = 0;
    while (live.next(want)) {
        ASSERT_TRUE(sift_replay.next(from_sift));
        ASSERT_TRUE(packed_replay.next(from_packed));
        EXPECT_EQ(from_sift.memAddr, want.memAddr);
        EXPECT_EQ(from_packed.memAddr, want.memAddr);
        loads += want.inst.isLoad;
    }
    EXPECT_EQ(loads, 3u);
    EXPECT_FALSE(sift_replay.next(from_sift));
    EXPECT_FALSE(packed_replay.next(from_packed));
}

// Associativity sweep: higher associativity can only reduce conflict
// misses on a same-set stream.
class AssocSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AssocSweep, ConflictMissesShrinkWithWays)
{
    cache::CacheParams p;
    p.name = "sweep";
    p.sizeBytes = 8 * KiB;
    p.assoc = GetParam();
    p.lineBytes = 64;
    p.latency = 1;
    cache::Cache cache(p);
    unsigned sets = p.numSets();
    // 8 lines in one set, round-robin, twice.
    for (int round = 0; round < 2; ++round) {
        for (uint64_t k = 0; k < 8; ++k) {
            if (!cache.lookup(k * sets, false).hit)
                cache.fill(k * sets, false, false);
        }
    }
    if (p.assoc >= 8) {
        // Second round must be all hits.
        EXPECT_EQ(cache.stats().misses, 8u);
    } else {
        EXPECT_GT(cache.stats().misses, 8u);
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Program, DataSegmentsLoadIntoMemory)
{
    isa::Assembler a("data");
    a.loadImm(1, 0x5000);
    a.ldr(2, 1, 0, 8);
    a.halt();
    isa::Program prog = a.finish();
    prog.addData(0x5000, {0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0});
    vm::FunctionalCore core(prog);
    core.run();
    EXPECT_EQ(core.regs().x[2], 0xdeadbeefu);
}
