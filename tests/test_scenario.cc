/** @file Scenario-table tests: golden target salts, family
 *  whitelists, the M-class presets and their no-L2 modeling, per-target
 *  raced-space clamping, firmware trace sizing and replay,
 *  the hold-out contract, and cross-target cache/checkpoint
 *  isolation. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "campaign/campaign.hh"
#include "core/params.hh"
#include "core/timing_model.hh"
#include "engine/engine.hh"
#include "engine/fingerprint.hh"
#include "hw/machine.hh"
#include "scenario/scenario.hh"
#include "ubench/ubench.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"
#include "vm/functional.hh"
#include "workload/firmware.hh"

using namespace raceval;
using namespace raceval::scenario;

namespace
{

isa::Program
smallProgram(const char *name, uint64_t insts = 5000)
{
    const ubench::UbenchInfo *info = ubench::find(name);
    EXPECT_NE(info, nullptr);
    return info->builder(insts, true);
}

/** Index of the parameter named @p name, or npos. */
size_t
paramIndex(const tuner::ParameterSpace &space, const std::string &name)
{
    for (size_t i = 0; i < space.size(); ++i) {
        if (space.at(i).name == name)
            return i;
    }
    return std::string::npos;
}

} // namespace

// -------------------------------------------------------------- tables

TEST(Scenario, GoldenTargetSalts)
{
    // These are ABI: the salt feeds warm EvalCache keys and campaign
    // checkpoint fingerprints, so changing any of them silently orphans
    // every cache file and checkpoint written before the change. The
    // pre-scenario boards are REQUIRED to stay at zero (that is what
    // keeps pre-scenario artifacts resolvable); cortex-m-class is
    // "M-class1" in ASCII.
    EXPECT_EQ(targetOrDie("cortex-a53").fingerprintSalt, 0u);
    EXPECT_EQ(targetOrDie("cortex-a72").fingerprintSalt, 0u);
    EXPECT_EQ(targetOrDie("cortex-m-class").fingerprintSalt,
              0x4d2d636c61737331ull);
}

TEST(Scenario, TableLookupAndRoles)
{
    EXPECT_EQ(findTarget("no-such-board"), nullptr);
    ASSERT_EQ(targets().size(), 3u);
    // Table order is stable (the --list rendering contract).
    EXPECT_STREQ(targets()[0].name, "cortex-a53");
    EXPECT_STREQ(targets()[1].name, "cortex-a72");
    EXPECT_STREQ(targets()[2].name, "cortex-m-class");

    EXPECT_EQ(findSuite("no-such-suite"), nullptr);
    ASSERT_NE(findSuite("ubench"), nullptr);
    ASSERT_NE(findSuite("spec2017"), nullptr);
    ASSERT_NE(findSuite("firmware"), nullptr);
    EXPECT_EQ(findSuite("ubench")->role, WorkloadRole::Tuning);
    EXPECT_EQ(findSuite("spec2017")->role, WorkloadRole::HeldOut);
    EXPECT_EQ(findSuite("firmware")->role, WorkloadRole::Firmware);
    EXPECT_STREQ(workloadRoleName(WorkloadRole::HeldOut), "held-out");

    // Suite adapters agree with the underlying program families.
    const WorkloadSuite &fw = suiteOrDie("firmware");
    ASSERT_EQ(fw.count(), workload::firmware::all().size());
    for (size_t i = 0; i < fw.count(); ++i)
        EXPECT_STREQ(fw.nameAt(i), workload::firmware::all()[i].name);
}

TEST(Scenario, FamilyWhitelists)
{
    const TargetBoard &a53 = targetOrDie("cortex-a53");
    EXPECT_TRUE(a53.allows(core::ModelFamily::InOrder));
    EXPECT_TRUE(a53.allows(core::ModelFamily::Interval));
    EXPECT_FALSE(a53.allows(core::ModelFamily::Ooo));

    const TargetBoard &a72 = targetOrDie("cortex-a72");
    EXPECT_TRUE(a72.allows(core::ModelFamily::Ooo));
    EXPECT_FALSE(a72.allows(core::ModelFamily::InOrder));

    // The M-class board is the one every family may model.
    const TargetBoard &m = targetOrDie("cortex-m-class");
    EXPECT_TRUE(m.allows(core::ModelFamily::InOrder));
    EXPECT_TRUE(m.allows(core::ModelFamily::Ooo));
    EXPECT_TRUE(m.allows(core::ModelFamily::Interval));

    // The pre-scenario family -> board mapping is frozen.
    EXPECT_STREQ(defaultTargetFor(core::ModelFamily::InOrder).name,
                 "cortex-a53");
    EXPECT_STREQ(defaultTargetFor(core::ModelFamily::Interval).name,
                 "cortex-a53");
    EXPECT_STREQ(defaultTargetFor(core::ModelFamily::Ooo).name,
                 "cortex-a72");
}

TEST(Scenario, TablesHaveDistinctNamesAndSalts)
{
    // Salt 0 is reserved for the grandfathered pre-scenario boards;
    // every other board needs its own nonzero salt -- it is the only
    // thing keeping two same-family boards apart in a shared warm
    // cache.
    const std::vector<TargetBoard> &boards = targets();
    for (size_t i = 0; i < boards.size(); ++i) {
        const TargetBoard &board = boards[i];
        EXPECT_NE(board.secret, nullptr) << board.name;
        EXPECT_NE(board.publicInfo, nullptr) << board.name;
        EXPECT_FALSE(board.families.empty()) << board.name;
        EXPECT_TRUE(board.allows(board.defaultFamily)) << board.name;
        bool grandfathered = std::string(board.name) == "cortex-a53"
            || std::string(board.name) == "cortex-a72";
        EXPECT_EQ(board.fingerprintSalt == 0, grandfathered)
            << board.name;
        for (size_t j = 0; j < i; ++j) {
            EXPECT_STRNE(boards[j].name, board.name);
            if (board.fingerprintSalt != 0) {
                EXPECT_NE(boards[j].fingerprintSalt,
                          board.fingerprintSalt);
            }
        }
    }
    const std::vector<WorkloadSuite> &suites = workloadSuites();
    for (size_t i = 0; i < suites.size(); ++i) {
        for (size_t j = 0; j < i; ++j)
            EXPECT_STRNE(suites[j].name, suites[i].name);
    }
}

// ------------------------------------------------- M-class board model

TEST(Scenario, CortexMPresetsAreNoL2)
{
    hw::HwParams secret = hw::secretCortexM();
    secret.core.validate();
    EXPECT_FALSE(secret.core.mem.l2Present);
    EXPECT_EQ(secret.core.fetchWidth, 1u);

    core::CoreParams pub = core::publicInfoCortexM();
    pub.validate();
    EXPECT_FALSE(pub.mem.l2Present);

    // The specification gap the race must close: the public guess and
    // the ground truth disagree on the undisclosed knobs.
    EXPECT_NE(pub.mispredictPenalty, secret.core.mispredictPenalty);
    EXPECT_NE(pub.mem.dram.latency, secret.core.mem.dram.latency);
    EXPECT_NE(pub.bp.btbBits, secret.core.bp.btbBits);

    // The hidden machine measures: a small trace produces a sane CPI.
    validate::HardwareOracle oracle(hw::makeMachine(secret, false));
    hw::PerfCounters counters = oracle.measure(smallProgram("MM", 4000));
    EXPECT_GT(counters.cpi(), 0.5);
    EXPECT_LT(counters.cpi(), 20.0);
}

TEST(Scenario, FingerprintTracksL2Presence)
{
    // l2Present feeds the CoreParams fingerprint (an L2-less model is
    // not the same model), but via a conditional mix so every
    // pre-existing L2-bearing fingerprint -- and with it every warm
    // cache file -- is unchanged by the field's existence.
    core::CoreParams with_l2 = core::publicInfoA53();
    core::CoreParams copy = with_l2;
    EXPECT_EQ(engine::fingerprint(with_l2), engine::fingerprint(copy));

    core::CoreParams without_l2 = with_l2;
    without_l2.mem.l2Present = false;
    EXPECT_NE(engine::fingerprint(with_l2),
              engine::fingerprint(without_l2));
}

TEST(Scenario, NoL2ModelSkipsStraightToMemory)
{
    // With the L2 gone and memory at TCM-like latency, a cache-hostile
    // pointer chase must get CHEAPER when dram latency is lowered, and
    // the l2 parameter block must be dead (ignored by the simulation).
    core::CoreParams m = core::publicInfoCortexM();
    isa::Program prog = smallProgram("MM", 6000);

    engine::EvalEngine eng(core::ModelFamily::InOrder);
    size_t id = eng.addInstance(prog);
    double base_cpi = eng.evaluateModel(m, id).simCpi;
    EXPECT_GT(base_cpi, 0.0);

    core::CoreParams dead_l2 = m;
    dead_l2.mem.l2.latency += 40;
    dead_l2.mem.l2.sizeBytes *= 4;
    // The l2 block still feeds the fingerprint, so evaluate fresh.
    EXPECT_DOUBLE_EQ(eng.evaluateModel(dead_l2, id).simCpi, base_cpi);

    core::CoreParams slow_mem = m;
    slow_mem.mem.dram.latency += 30;
    EXPECT_GT(eng.evaluateModel(slow_mem, id).simCpi, base_cpi);
}

// ------------------------------------------------- raced-space clamping

TEST(Scenario, ClampedSpaceDropsL2AndOverridesLevels)
{
    const TargetBoard &m = targetOrDie("cortex-m-class");
    validate::SniperParamSpace mspace(core::ModelFamily::InOrder,
                                      m.clamp);
    validate::SniperParamSpace aspace(core::ModelFamily::InOrder);

    // Every l2_* knob is gone, nothing else is.
    for (size_t i = 0; i < mspace.space().size(); ++i) {
        EXPECT_NE(mspace.space().at(i).name.substr(0, 3), "l2_")
            << mspace.space().at(i).name;
    }
    size_t l2_knobs = 0;
    for (size_t i = 0; i < aspace.space().size(); ++i) {
        if (aspace.space().at(i).name.substr(0, 3) == "l2_")
            ++l2_knobs;
    }
    EXPECT_EQ(l2_knobs, 7u);
    EXPECT_EQ(mspace.space().size(), aspace.space().size() - l2_knobs);

    // The M-class level overrides land verbatim.
    size_t idx = paramIndex(mspace.space(), "mispredict_penalty");
    ASSERT_NE(idx, std::string::npos);
    EXPECT_EQ(mspace.space().at(idx).levels,
              (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 8}));
    idx = paramIndex(mspace.space(), "dram_latency");
    ASSERT_NE(idx, std::string::npos);
    EXPECT_EQ(mspace.space().at(idx).levels,
              (std::vector<int64_t>{4, 6, 8, 9, 12, 16, 24}));
    idx = paramIndex(mspace.space(), "bp_btb_bits");
    ASSERT_NE(idx, std::string::npos);
    EXPECT_EQ(mspace.space().at(idx).levels,
              (std::vector<int64_t>{3, 4, 5, 6, 7, 8}));
    idx = paramIndex(mspace.space(), "dram_cycles_per_line");
    ASSERT_NE(idx, std::string::npos);
    EXPECT_EQ(mspace.space().at(idx).levels,
              (std::vector<int64_t>{1, 2, 3, 4, 6}));
}

TEST(Scenario, DefaultClampReproducesLegacySpace)
{
    // Declaration order is raced-trajectory ABI: the default clamp must
    // reproduce the pre-scenario binding table knob for knob, or every
    // recorded A53/A72 trajectory and checkpoint goes stale.
    for (core::ModelFamily family : {core::ModelFamily::InOrder,
                                     core::ModelFamily::Ooo,
                                     core::ModelFamily::Interval}) {
        validate::SniperParamSpace legacy(
            family == core::ModelFamily::Ooo);
        validate::SniperParamSpace clamped(family, SpaceClamp{});
        if (family == core::ModelFamily::Interval) {
            // The legacy bool ctor cannot express interval; build the
            // reference through the family ctor's default clamp arg.
            validate::SniperParamSpace reference(family);
            ASSERT_EQ(clamped.space().size(), reference.space().size());
            continue;
        }
        ASSERT_EQ(clamped.space().size(), legacy.space().size());
        for (size_t i = 0; i < clamped.space().size(); ++i) {
            const tuner::Parameter &a = clamped.space().at(i);
            const tuner::Parameter &b = legacy.space().at(i);
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(static_cast<int>(a.kind),
                      static_cast<int>(b.kind));
            EXPECT_EQ(a.levels, b.levels);
            EXPECT_EQ(a.labels, b.labels);
        }
    }
}

// ----------------------------------------------------- firmware traces

TEST(Scenario, ScaledCountCapIsParametric)
{
    // Halve-until-under-cap, landing in (cap/2, cap].
    EXPECT_EQ(ubench::scaledCount(100'000), 100'000u);
    EXPECT_EQ(ubench::scaledCount(1'000'000, 260'000),
              ubench::scaledCount(1'000'000));
    uint64_t fw = ubench::scaledCount(160'000'000,
                                      workload::firmware::traceCap);
    EXPECT_LE(fw, workload::firmware::traceCap);
    EXPECT_GT(fw, workload::firmware::traceCap / 2);
}

TEST(Scenario, FirmwareTracesLandInUpperHalfOfCap)
{
    // Firmware sizes define the workload and its goldens: every scaled
    // firmware trace lands in (traceCap/2, traceCap], i.e. above 1 Mi
    // dynamic instructions, whatever its nominal count.
    ASSERT_EQ(workload::firmware::all().size(), 3u);
    for (const auto &info : workload::firmware::all()) {
        uint64_t scaled = ubench::scaledCount(
            info.dynInsts, workload::firmware::traceCap);
        EXPECT_GT(scaled, workload::firmware::traceCap / 2) << info.name;
        EXPECT_LE(scaled, workload::firmware::traceCap) << info.name;
    }
}

TEST(Scenario, FirmwareTraceEngineMatchesLive)
{
    // A > 1 Mi-instruction firmware trace: the engine's packed replay
    // and live functional execution time identically.
    const auto &infos = workload::firmware::all();
    isa::Program prog = workload::firmware::build(infos[0]);
    core::CoreParams model = core::publicInfoCortexM();

    engine::EvalEngine eng(core::ModelFamily::InOrder);
    size_t id = eng.addInstance(prog);
    EXPECT_GT(eng.traceBank().instCount(id), 1ull << 20);
    double engine_cpi = eng.evaluateModel(model, id).simCpi;

    auto timing = core::makeTimingModel(core::ModelFamily::InOrder, model);
    vm::FunctionalCore live(prog);
    EXPECT_EQ(timing->run(live).cpi(), engine_cpi);

    // A different model still moves the result.
    model.mispredictPenalty += 1;
    EXPECT_NE(eng.evaluateModel(model, id).simCpi, engine_cpi);
}

// ---------------------------------------------------- hold-out contract

TEST(ScenarioDeathTest, HeldOutInstancesRefuseRacing)
{
    engine::EvalEngine eng(core::ModelFamily::InOrder);
    size_t tuning = eng.addInstance(smallProgram("CCh", 4000));
    size_t held_out = eng.addInstance(smallProgram("MM", 4000));
    EXPECT_FALSE(eng.isHeldOut(tuning));
    EXPECT_FALSE(eng.isHeldOut(held_out));
    eng.markHeldOut(held_out);
    EXPECT_TRUE(eng.isHeldOut(held_out));
    EXPECT_FALSE(eng.isHeldOut(tuning));

    // Reporting stays allowed: held-out workloads are measured.
    EXPECT_GT(eng.evaluateModel(core::publicInfoA53(), held_out).simCpi,
              0.0);

    // Racing is a contract violation: no Configuration-keyed
    // evaluation -- the path every search strategy charges its budget
    // through -- may ever target a held-out instance.
    eng.setModelFn([](const tuner::Configuration &) {
        return core::publicInfoA53();
    });
    tuner::Configuration config;
    EXPECT_GT(eng.evaluate(config, tuning), 0.0);
    EXPECT_DEATH(eng.evaluate(config, held_out), "held-out");
    EXPECT_DEATH(
        {
            engine::BatchEvaluator batch(eng);
            batch.submit(config, held_out);
        },
        "held-out");
}

// ------------------------------------- cross-target cache + checkpoints

TEST(Scenario, TargetsNeverAliasInSharedWarmCache)
{
    // Mirror of Engine.FamiliesNeverAliasInSharedWarmCache, one level
    // up: two boards sharing a model family must produce distinct
    // entries in one shared cache file. The flow keys per-target costs
    // as (CostKind + 1) ^ fingerprintSalt -- salt 0 reproduces the
    // pre-scenario tag for the A-class boards, the M-class salt splits
    // the rest.
    isa::Program prog = smallProgram("MM", 5000);
    core::CoreParams model = core::publicInfoA53();
    uint64_t a53_tag = 1 ^ targetOrDie("cortex-a53").fingerprintSalt;
    uint64_t m_tag = 1 ^ targetOrDie("cortex-m-class").fingerprintSalt;
    EXPECT_EQ(a53_tag, 1u); // the pre-scenario tag, bit for bit
    EXPECT_NE(m_tag, a53_tag);
    std::string path = ::testing::TempDir() + "/scenario-targets.bin";

    double a53_cost = 0.0, m_cost = 0.0;
    {
        engine::EvalEngine eng(core::ModelFamily::InOrder);
        size_t id = eng.addInstance(prog);
        eng.setCostFn(
            [](const core::CoreStats &sim, size_t) { return sim.cpi(); },
            a53_tag);
        a53_cost = eng.evaluateModel(model, id).cost;
        eng.setCostFn(
            [](const core::CoreStats &sim, size_t) {
                return 2.0 * sim.cpi();
            },
            m_tag);
        m_cost = eng.evaluateModel(model, id).cost;
        // No aliasing: the second target's evaluation was fresh.
        EXPECT_EQ(eng.stats().evaluations, 2u);
        EXPECT_NE(a53_cost, m_cost);
        EXPECT_EQ(eng.saveCache(path), 2u);
    }

    // A warm restart under either target's tag sees exactly its own
    // cached value, without a single fresh evaluation.
    engine::EvalEngine warm(core::ModelFamily::InOrder);
    size_t id = warm.addInstance(prog);
    EXPECT_EQ(warm.mapWarmFile(path), 2u);
    warm.setCostFn(
        [](const core::CoreStats &sim, size_t) { return sim.cpi(); },
        a53_tag);
    EXPECT_DOUBLE_EQ(warm.evaluateModel(model, id).cost, a53_cost);
    warm.setCostFn(
        [](const core::CoreStats &sim, size_t) {
            return 2.0 * sim.cpi();
        },
        m_tag);
    EXPECT_DOUBLE_EQ(warm.evaluateModel(model, id).cost, m_cost);
    EXPECT_EQ(warm.stats().evaluations, 0u);
    std::remove(path.c_str());
}

TEST(Scenario, TargetFingerprintBackCompat)
{
    // The pre-scenario checkpoint contract, mirroring
    // Campaign.StrategyFingerprintBackCompat: "" and the two zero-salt
    // A-class boards fingerprint identically (pre-scenario checkpoints
    // keep restoring), while a salted target changes the fingerprint.
    tuner::ParameterSpace space;
    space.addOrdinal("mispredict_penalty", {4, 8, 12, 16});
    space.addFlag("forwarding");
    engine::ModelFn model_fn = [&space](const tuner::Configuration &c) {
        core::CoreParams model = core::publicInfoA53();
        model.mispredictPenalty = static_cast<unsigned>(
            space.ordinalValue(c, "mispredict_penalty"));
        model.forwarding = space.flagValue(c, "forwarding");
        return model;
    };
    engine::EvalEngine eng(core::ModelFamily::InOrder);
    eng.addInstance(smallProgram("CCh", 4000));
    eng.addInstance(smallProgram("MM", 4000));

    auto make_task = [&](const char *target) {
        campaign::CampaignTask task;
        task.name = "t";
        task.space = &space;
        task.modelFn = model_fn;
        task.instances = {0, 1};
        task.racer.maxExperiments = 50;
        task.racer.seed = 11;
        task.target = target;
        return task;
    };

    uint64_t fp = taskFingerprint(eng, make_task(""));
    EXPECT_EQ(taskFingerprint(eng, make_task("cortex-a53")), fp);
    EXPECT_EQ(taskFingerprint(eng, make_task("cortex-a72")), fp);
    EXPECT_NE(taskFingerprint(eng, make_task("cortex-m-class")), fp);
}
