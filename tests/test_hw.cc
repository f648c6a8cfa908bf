/** @file Detailed hardware stand-in tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "scenario/scenario.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"

using namespace raceval;

TEST(Hw, MeasurementsAreDeterministic)
{
    auto machine = hw::makeMachine(hw::secretA53(), false);
    isa::Program prog = ubench::find("CCh")->builder(20000, true);
    vm::FunctionalCore src(prog);
    hw::PerfCounters a = machine->measure(src);
    hw::PerfCounters b = machine->measure(src);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
}

TEST(Hw, NoiseIsBoundedAndPerBenchmark)
{
    hw::HwParams params = hw::secretA53();
    auto machine = hw::makeMachine(params, false);
    isa::Program prog = ubench::find("EI")->builder(20000, true);
    vm::FunctionalCore src(prog);
    core::CoreStats raw = machine->rawRun(src);
    hw::PerfCounters noisy = machine->measure(src);
    double ratio = static_cast<double>(noisy.cycles)
        / static_cast<double>(raw.cycles);
    EXPECT_NEAR(ratio, 1.0, 6.0 * params.noiseStdDev);
    EXPECT_NE(noisy.cycles, raw.cycles); // noise is actually applied
}

TEST(Hw, CountersMatchFunctionalInstructionCount)
{
    auto machine = hw::makeMachine(hw::secretA72(), true);
    isa::Program prog = ubench::find("DP1d")->builder(15000, true);
    vm::FunctionalCore src(prog);
    uint64_t functional = src.run();
    hw::PerfCounters perf = machine->measure(src);
    EXPECT_EQ(perf.instructions, functional);
}

TEST(Hw, ZeroPageReadsLookLikeHits)
{
    // The paper's anecdote: reads of an uninitialized array are mostly
    // cache hits on real hardware, while an initialized array behaves
    // normally. The uninit variant must therefore run *faster* on the
    // hw model.
    auto machine = hw::makeMachine(hw::secretA53(), false);
    const ubench::UbenchInfo *info = ubench::find("M_Dyn");
    isa::Program uninit = info->builder(60000, false);
    isa::Program init = info->builder(60000, true);
    vm::FunctionalCore src_u(uninit), src_i(init);
    double cpi_uninit = machine->rawRun(src_u).cpi();
    double cpi_init = machine->rawRun(src_i).cpi();
    EXPECT_LT(cpi_uninit, 0.5 * cpi_init);
}

TEST(Hw, ZeroPageEffectCanBeDisabled)
{
    hw::HwParams params = hw::secretA53();
    params.zeroPageReads = false;
    auto machine = hw::makeMachine(params, false);
    const ubench::UbenchInfo *info = ubench::find("M_Dyn");
    isa::Program uninit = info->builder(60000, false);
    vm::FunctionalCore src(uninit);
    double cpi_off = machine->rawRun(src).cpi();
    hw::HwParams on = hw::secretA53();
    auto machine_on = hw::makeMachine(on, false);
    vm::FunctionalCore src2(uninit);
    double cpi_on = machine_on->rawRun(src2).cpi();
    EXPECT_GT(cpi_off, cpi_on);
}

TEST(Hw, InOrderSlowerOrEqualOoOOnIlp)
{
    // The OoO board extracts more ILP from a dependent+independent
    // instruction mix than the in-order board.
    isa::Program prog = ubench::find("EM5")->builder(30000, true);
    auto little = hw::makeMachine(hw::secretA53(), false);
    auto big = hw::makeMachine(hw::secretA72(), true);
    vm::FunctionalCore s1(prog), s2(prog);
    EXPECT_GE(little->rawRun(s1).cpi(), big->rawRun(s2).cpi() - 0.05);
}

TEST(Hw, RunsEveryUbenchWithoutBlowingUp)
{
    auto machine = hw::makeMachine(hw::secretA53(), false);
    for (const auto &info : ubench::all()) {
        isa::Program prog = info.builder(4000, true);
        vm::FunctionalCore src(prog);
        core::CoreStats stats = machine->rawRun(src);
        EXPECT_GT(stats.cycles, 0u) << info.name;
        EXPECT_GT(stats.instructions, 0u) << info.name;
        EXPECT_LT(stats.cpi(), 400.0) << info.name;
    }
}

namespace
{

/** FNV-1a, one 64-bit word at a time. */
void
mixDigest(uint64_t &h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

} // namespace

/*
 * Board-counter lock: the detailed machines are the ground truth every
 * race is scored against, so a speed-up of the board models must not
 * move one counter. The digest covers the perf counters of every target
 * board over a fixed subset of all three workload suites (zero-page
 * reads, store-buffer traffic and forwarding, divides, long firmware
 * loops). It was
 * recorded before the board models were last optimised; a change that
 * moves it changes the ground truth and every tuned result.
 */
TEST(Hw, BoardCounterDigestIsLocked)
{
    const std::vector<std::string> subset = {
        "M_Dyn", "ML2_BW_ldst", "STL2b", "CCh", "CRf", "DPTd", "EM5",
        "xalancbmk", "povray", "leela", "fw-timer-wheel"};
    uint64_t digest = 0xcbf29ce484222325ull;
    size_t measured = 0;
    std::string table;
    for (const scenario::TargetBoard &target : scenario::targets()) {
        auto machine = hw::makeMachine(target.secret(), target.outOfOrderHw);
        for (const scenario::WorkloadSuite &suite :
             scenario::workloadSuites()) {
            for (size_t i = 0; i < suite.count(); ++i) {
                const std::string name = suite.nameAt(i);
                if (std::find(subset.begin(), subset.end(), name)
                    == subset.end())
                    continue;
                isa::Program prog = suite.buildAt(i);
                vm::FunctionalCore src(prog);
                hw::PerfCounters perf = machine->measure(src);
                char line[160];
                std::snprintf(line, sizeof(line),
                              "%s %s inst=%llu cycles=%llu bmiss=%llu "
                              "l1dmiss=%llu l2miss=%llu\n",
                              target.name, name.c_str(),
                              static_cast<unsigned long long>(
                                  perf.instructions),
                              static_cast<unsigned long long>(perf.cycles),
                              static_cast<unsigned long long>(
                                  perf.branchMisses),
                              static_cast<unsigned long long>(
                                  perf.l1dMisses),
                              static_cast<unsigned long long>(
                                  perf.l2Misses));
                table += line;
                mixDigest(digest, perf.instructions);
                mixDigest(digest, perf.cycles);
                mixDigest(digest, perf.branchMisses);
                mixDigest(digest, perf.l1dMisses);
                mixDigest(digest, perf.l2Misses);
                ++measured;
            }
        }
    }
    EXPECT_EQ(measured, subset.size() * scenario::targets().size());
    EXPECT_EQ(digest, 0x5f4e3ad46c8942e2ull)
        << std::hex << "digest 0x" << digest << "\n" << table;
}
