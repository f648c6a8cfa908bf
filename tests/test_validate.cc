/** @file Validation-flow component tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "ubench/ubench.hh"
#include "validate/flow.hh"
#include "validate/latency_probe.hh"
#include "validate/perturb.hh"
#include "validate/sniper_space.hh"

using namespace raceval;
using namespace raceval::validate;

TEST(SniperSpace, ApplyEncodeRoundTrip)
{
    SniperParamSpace sspace(false);
    core::CoreParams base = core::publicInfoA53();
    tuner::Configuration encoded = sspace.encode(base);
    core::CoreParams applied = sspace.apply(encoded, base);
    EXPECT_EQ(applied.mispredictPenalty, base.mispredictPenalty);
    EXPECT_EQ(applied.storeBufferEntries, base.storeBufferEntries);
    EXPECT_EQ(applied.bp.kind, base.bp.kind);
    EXPECT_EQ(applied.mem.l1d.hash, base.mem.l1d.hash);
    EXPECT_EQ(applied.mem.dram.latency, base.mem.dram.latency);
    EXPECT_EQ(applied.latency, base.latency);
}

TEST(SniperSpace, NearestLevelTiesPickLowerLevel)
{
    tuner::Parameter p;
    p.kind = tuner::Parameter::Kind::Ordinal;
    p.levels = {4, 6, 8, 12};
    // Exact hits.
    EXPECT_EQ(nearestLevel(p, 4), 0);
    EXPECT_EQ(nearestLevel(p, 8), 2);
    // Ties are equidistant between two levels: the LOWER level wins,
    // deterministically (seeding must reproduce across stdlibs).
    EXPECT_EQ(nearestLevel(p, 5), 0);  // 4 vs 6
    EXPECT_EQ(nearestLevel(p, 7), 1);  // 6 vs 8
    EXPECT_EQ(nearestLevel(p, 10), 2); // 8 vs 12
    // Out-of-range values clamp to the boundary levels.
    EXPECT_EQ(nearestLevel(p, 1), 0);
    EXPECT_EQ(nearestLevel(p, 100), 3);

    // The projection seeds races through encode(): a value exactly
    // between two mispredict-penalty levels lands on the lower one.
    SniperParamSpace sspace(false);
    core::CoreParams base = core::publicInfoA53();
    base.mispredictPenalty = 5; // levels are {4, 6, ...}
    tuner::Configuration config = sspace.encode(base);
    EXPECT_EQ(sspace.space().ordinalValue(config, "mispredict_penalty"),
              4);
}

TEST(SniperSpace, BindingRoundTripIdentityAllFamilies)
{
    // Property: apply(encode(p), base) is the identity on every raced
    // field, for every family -- the binding table's getter and setter
    // cannot disagree. Random configurations exercise every level.
    const core::ModelFamily families[] = {core::ModelFamily::InOrder,
                                          core::ModelFamily::Ooo,
                                          core::ModelFamily::Interval};
    for (core::ModelFamily family : families) {
        SniperParamSpace sspace(family);
        core::CoreParams base = family == core::ModelFamily::Ooo
            ? core::publicInfoA72() : core::publicInfoA53();
        Rng rng(0x5eedull
                + static_cast<uint64_t>(core::modelFamilySalt(family)));
        for (int trial = 0; trial < 12; ++trial) {
            tuner::Configuration config(sspace.space().size());
            for (size_t i = 0; i < sspace.space().size(); ++i) {
                config[i] = static_cast<uint16_t>(rng.nextBelow(
                    sspace.space().at(i).cardinality()));
            }
            core::CoreParams p = sspace.apply(config, base);
            // Raced values sit exactly on declared levels, so the
            // projection recovers the configuration bit-exactly...
            EXPECT_EQ(sspace.encode(p), config)
                << core::modelFamilyName(family);
            // ...and a second apply reproduces every raced field.
            core::CoreParams again =
                sspace.apply(sspace.encode(p), base);
            for (const ParamBinding &row : sspace.bindings()) {
                EXPECT_EQ(row.get(again), row.get(p))
                    << core::modelFamilyName(family) << "/"
                    << row.spec.name;
            }
        }
    }
}

TEST(SniperSpace, FamilyBindingListsDeclareTheKnobsTheModelReads)
{
    SniperParamSpace in_order(core::ModelFamily::InOrder);
    SniperParamSpace interval(core::ModelFamily::Interval);
    SniperParamSpace ooo(core::ModelFamily::Ooo);
    // ooo = in-order knobs + all four windows; interval = in-order
    // knobs + the ROB, minus the seven dimensions the interval
    // abstraction never reads (store buffer, forwarding x2, divide
    // pipelining x2, MSHRs x2).
    EXPECT_EQ(ooo.space().size(), in_order.space().size() + 4);
    EXPECT_EQ(interval.space().size(), in_order.space().size() + 1 - 7);
    // The shared ooo prefix declares identical parameters.
    for (size_t i = 0; i < in_order.space().size(); ++i)
        EXPECT_EQ(ooo.space().at(i).name, in_order.space().at(i).name);
    // Every interval knob exists in the in-order+ROB set, and the
    // timing-dead knobs are excluded.
    std::set<std::string> interval_names;
    for (const ParamBinding &row : interval.bindings())
        interval_names.insert(row.spec.name);
    EXPECT_EQ(interval_names.size(), interval.space().size());
    EXPECT_TRUE(interval_names.count("rob_entries"));
    for (const char *dead :
         {"store_buffer_entries", "forwarding", "forward_latency",
          "int_div_pipelined", "fp_div_pipelined", "l1d_mshrs",
          "l2_mshrs"}) {
        EXPECT_FALSE(interval_names.count(dead)) << dead;
    }
    EXPECT_EQ(interval.family(), core::ModelFamily::Interval);
    EXPECT_FALSE(interval.outOfOrder());
}

TEST(SniperSpace, OooAddsWindowParameters)
{
    SniperParamSpace in_order(false), ooo(true);
    EXPECT_EQ(ooo.space().size(), in_order.space().size() + 4);
    core::CoreParams base = core::publicInfoA72();
    tuner::Configuration config = ooo.encode(base);
    ooo.space().setOrdinal(config, "rob_entries", 192);
    core::CoreParams applied = ooo.apply(config, base);
    EXPECT_EQ(applied.robEntries, 192u);
}

TEST(SniperSpace, SecretsAreReachable)
{
    // Every secret hardware value must exist in the raced level sets,
    // otherwise the specification gap is unclosable by construction.
    SniperParamSpace sspace(true);
    core::CoreParams secret = hw::secretA72().core;
    tuner::Configuration encoded = sspace.encode(secret);
    core::CoreParams applied = sspace.apply(encoded, secret);
    EXPECT_EQ(applied.mispredictPenalty, secret.mispredictPenalty);
    EXPECT_EQ(applied.robEntries, secret.robEntries);
    EXPECT_EQ(applied.iqEntries, secret.iqEntries);
    EXPECT_EQ(applied.latency, secret.latency);
    EXPECT_EQ(applied.mem.l1d.prefetch, secret.mem.l1d.prefetch);
    EXPECT_EQ(applied.mem.l1d.hash, secret.mem.l1d.hash);
    EXPECT_EQ(applied.mem.dram.cyclesPerLine,
              secret.mem.dram.cyclesPerLine);
    EXPECT_EQ(applied.bp.kind, secret.bp.kind);
    EXPECT_EQ(applied.bp.indirect, secret.bp.indirect);
}

TEST(LatencyProbe, RecoversPlausibleLatencies)
{
    auto board = hw::makeMachine(hw::secretA53(), false);
    LatencyEstimates est = probeLatencies(*board);
    // True values: l1d=3, l2=13(+1 serial). lmbench-style probing is
    // approximate; it must land in the right neighborhood.
    EXPECT_GE(est.l1d, 2u);
    EXPECT_LE(est.l1d, 5u);
    EXPECT_GE(est.l2, 9u);
    EXPECT_LE(est.l2, 22u);
}

TEST(Oracle, CachesMeasurements)
{
    HardwareOracle oracle(hw::makeMachine(hw::secretA53(), false));
    isa::Program prog = ubench::find("EI")->builder(5000, true);
    hw::PerfCounters a = oracle.measure(prog);
    hw::PerfCounters b = oracle.measure(prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.benchmark, "EI");
}

namespace
{

/** A board that counts how often it is run. */
class CountingMachine : public hw::HwMachine
{
  public:
    CountingMachine() : hw::HwMachine(hw::secretA53()) {}

    core::CoreStats
    rawRun(vm::TraceSource &source) override
    {
        ++runs;
        // Long enough that every caller arrives while it runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        core::CoreStats stats;
        stats.instructions = source.name().size();
        stats.cycles = 1000;
        return stats;
    }

    std::atomic<int> runs{0};
};

} // namespace

TEST(Oracle, ConcurrentFirstCallersShareOneMeasurement)
{
    auto owned = std::make_unique<CountingMachine>();
    CountingMachine &board = *owned;
    HardwareOracle oracle(std::move(owned));
    isa::Program ei = ubench::find("EI")->builder(500, true);
    isa::Program cca = ubench::find("CCa")->builder(500, true);

    constexpr int perName = 4;
    std::vector<hw::PerfCounters> results(2 * perName);
    std::vector<std::thread> callers;
    for (int i = 0; i < 2 * perName; ++i) {
        callers.emplace_back([&, i] {
            results[i] = oracle.measure(i % 2 ? cca : ei);
        });
    }
    for (std::thread &caller : callers)
        caller.join();

    EXPECT_EQ(board.runs.load(), 2); // once per name, not per caller
    for (int i = 0; i < 2 * perName; ++i) {
        EXPECT_EQ(results[i].benchmark, i % 2 ? "CCa" : "EI");
        EXPECT_EQ(results[i].cycles, results[i % 2].cycles);
    }
    oracle.measure(ei);
    EXPECT_EQ(board.runs.load(), 2);
}

TEST(Flow, TuningImprovesOnPublicInfo)
{
    FlowOptions opts;
    opts.budget = 800; // tiny smoke budget
    opts.threads = 2;
    ValidationFlow flow(scenario::targetOrDie("cortex-a53"),
                        core::ModelFamily::InOrder, opts);
    FlowReport report = flow.run();
    EXPECT_GT(report.untunedUbenchAvg, 0.25);
    EXPECT_LT(report.tunedUbenchAvg, report.untunedUbenchAvg);
    EXPECT_EQ(report.untunedUbench.size(), 40u);
    EXPECT_EQ(report.tunedUbench.size(), 40u);
    EXPECT_LE(report.race.experimentsUsed, 800u);
}

// Step #5's cost adds a non-negative branch-misprediction-rate term to
// the CPI error, so it never scores below the plain CPI cost -- and on
// a branchy micro-benchmark it must score strictly above it.
TEST(Flow, CpiPlusBranchCostNeverBelowCpiCost)
{
    const scenario::TargetBoard &a53 = scenario::targetOrDie("cortex-a53");
    FlowOptions cpi_opts;
    cpi_opts.threads = 2;
    FlowOptions branch_opts = cpi_opts;
    branch_opts.costKind = CostKind::CpiPlusBranch;
    ValidationFlow cpi(a53, core::ModelFamily::InOrder, cpi_opts);
    ValidationFlow branch(a53, core::ModelFamily::InOrder, branch_opts);

    core::CoreParams model = core::publicInfoA53();
    bool raised_on_control = false;
    for (size_t i = 0; i < ubench::all().size(); ++i) {
        const ubench::UbenchInfo &info = ubench::all()[i];
        double cpi_cost = cpi.engine().evaluateModel(model, i).cost;
        double branch_cost =
            branch.engine().evaluateModel(model, i).cost;
        EXPECT_GE(branch_cost, cpi_cost) << info.name;
        if (info.category == ubench::Category::Control
            && branch_cost > cpi_cost)
            raised_on_control = true;
    }
    EXPECT_TRUE(raised_on_control);
}

namespace
{

std::string
fileBytes(const std::string &path)
{
    std::string bytes;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    if (!file)
        return bytes;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        bytes.append(buf, got);
    std::fclose(file);
    return bytes;
}

} // namespace

// A flow with evalCachePath saves what it evaluated when destroyed; a
// second flow on the same path maps that file and replays the race
// without a single fresh simulation.
TEST(Flow, WarmStartReplaysTheRaceWithoutSimulating)
{
    std::string path = ::testing::TempDir() + "/flow-warm.bin";
    std::remove(path.c_str());
    FlowOptions opts;
    opts.budget = 800;
    opts.threads = 2;
    opts.evalCachePath = path;

    tuner::RaceResult cold_race;
    {
        ValidationFlow cold(scenario::targetOrDie("cortex-a53"),
                            core::ModelFamily::InOrder, opts);
        FlowReport report = cold.run();
        cold_race = report.race;
        EXPECT_GT(report.engineStats.evaluations, 0u);
    }

    ValidationFlow warm(scenario::targetOrDie("cortex-a53"),
                        core::ModelFamily::InOrder, opts);
    ASSERT_NE(warm.engine().warmFile(), nullptr);
    FlowReport report = warm.run();
    EXPECT_EQ(report.engineStats.evaluations, 0u);
    EXPECT_GT(report.engineStats.warmFileHits, 0u);
    EXPECT_TRUE(report.race.best == cold_race.best);
    EXPECT_EQ(report.race.bestMeanCost, cold_race.bestMeanCost);
    EXPECT_EQ(report.race.bestCosts, cold_race.bestCosts);
    EXPECT_EQ(report.race.experimentsUsed, cold_race.experimentsUsed);
    EXPECT_EQ(report.race.iterations, cold_race.iterations);
    EXPECT_EQ(report.race.elites, cold_race.elites);
    std::remove(path.c_str());
}

// A file at evalCachePath that does not map (here: foreign magic) is
// left byte-identical: the flow warns and never saves over it.
TEST(Flow, NeverOverwritesAnUnmappableCacheFile)
{
    std::string path = ::testing::TempDir() + "/flow-foreign.bin";
    std::string foreign = "NOTACACHE: someone else's file, 40 bytes";
    {
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::fputs(foreign.c_str(), file);
        std::fclose(file);
    }
    FlowOptions opts;
    opts.threads = 2;
    opts.evalCachePath = path;
    setQuiet(true);
    {
        ValidationFlow flow(scenario::targetOrDie("cortex-a53"),
                        core::ModelFamily::InOrder, opts);
        EXPECT_EQ(flow.engine().warmFile(), nullptr);
        EXPECT_GT(flow.ubenchError(core::publicInfoA53(), nullptr, 8),
                  0.0);
    }
    setQuiet(false);
    EXPECT_EQ(fileBytes(path), foreign);
    std::remove(path.c_str());
}

TEST(Perturb, WorstNeighborIsWorse)
{
    SniperParamSpace sspace(false);
    core::CoreParams base = core::publicInfoA53();
    tuner::Configuration tuned = sspace.encode(base);
    // Synthetic smooth objective with minimum at the encoded point.
    auto error_fn = [&tuned](const tuner::Configuration &c) {
        double err = 0.0;
        for (size_t i = 0; i < c.size(); ++i)
            err += std::abs(int(c[i]) - int(tuned[i]));
        return err;
    };
    PerturbResult result =
        worstNearOptimum(sspace, tuned, error_fn, 8, 3);
    EXPECT_GT(result.worstError, result.tunedError);
    EXPECT_GT(result.evaluations, sspace.space().size());
    // Every deviated parameter moved at most one ordinal step.
    for (size_t i = 0; i < tuned.size(); ++i) {
        const auto &param = sspace.space().at(i);
        if (param.kind == tuner::Parameter::Kind::Ordinal) {
            EXPECT_LE(std::abs(int(result.worst[i]) - int(tuned[i])), 1)
                << param.name;
        }
    }
}

TEST(BenchError, ErrorMath)
{
    BenchError err;
    err.hwCpi = 2.0;
    err.simCpi = 1.5;
    EXPECT_DOUBLE_EQ(err.error(), 0.25);
    err.simCpi = 3.0;
    EXPECT_DOUBLE_EQ(err.error(), 0.5);
}
