/** @file Timing-model family table and interval-core tests. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"
#include "core/timing_model.hh"
#include "ubench/ubench.hh"
#include "validate/sniper_space.hh"
#include "vm/functional.hh"

using namespace raceval;
using core::ModelFamily;

namespace
{

double
familyCpi(ModelFamily family, const core::CoreParams &params,
          const isa::Program &prog)
{
    vm::FunctionalCore src(prog);
    return core::makeTimingModel(family, params)->run(src).cpi();
}

} // namespace

TEST(TimingModelFamilies, TableIndexedByFamilyWithGoldenSalts)
{
    const auto &table = core::modelFamilies();
    for (size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(static_cast<size_t>(table[i].family), i);
    EXPECT_STREQ(core::modelFamilyName(ModelFamily::InOrder), "inorder");
    EXPECT_STREQ(core::modelFamilyName(ModelFamily::Ooo), "ooo");
    EXPECT_STREQ(core::modelFamilyName(ModelFamily::Interval),
                 "interval");
    // Salts are persisted-cache ABI: every EvalCache file and campaign
    // checkpoint keys on these exact values.
    EXPECT_EQ(core::modelFamilySalt(ModelFamily::InOrder),
              0x696e6f72646572ull);
    EXPECT_EQ(core::modelFamilySalt(ModelFamily::Ooo), 0x6f6f6f636f7265ull);
    EXPECT_EQ(core::modelFamilySalt(ModelFamily::Interval),
              0x696e74657276616cull);
}

TEST(TimingModelFamilies, ParseAndFactoryRoundTrip)
{
    ModelFamily family = ModelFamily::InOrder;
    EXPECT_TRUE(core::parseModelFamily("interval", family));
    EXPECT_EQ(family, ModelFamily::Interval);
    EXPECT_TRUE(core::parseModelFamily("ooo", family));
    EXPECT_EQ(family, ModelFamily::Ooo);
    EXPECT_FALSE(core::parseModelFamily("sniper", family));
    EXPECT_EQ(family, ModelFamily::Ooo); // untouched on failure

    // The factory constructs the concrete core for each tag.
    core::CoreParams params = core::publicInfoA53();
    auto model = core::makeTimingModel(ModelFamily::Interval, params);
    EXPECT_NE(dynamic_cast<core::IntervalCore *>(model.get()), nullptr);
    auto in_order = core::makeTimingModel(ModelFamily::InOrder, params);
    EXPECT_NE(dynamic_cast<core::InOrderCore *>(in_order.get()),
              nullptr);
}

// The interval core sustains at most the dispatch width: IPC can never
// exceed it, on any benchmark.
TEST(IntervalCore, NeverExceedsDispatchWidth)
{
    core::CoreParams params = core::publicInfoA53();
    for (const auto &info : ubench::all()) {
        isa::Program prog = info.builder(20000, true);
        vm::FunctionalCore src(prog);
        core::CoreStats stats =
            core::IntervalCore(params).run(src);
        EXPECT_GE(stats.cycles * params.dispatchWidth,
                  stats.instructions)
            << info.name;
        EXPECT_GT(stats.cycles, 0u) << info.name;
    }
}

// Suite-mean CPI ordering: the interval abstraction hides everything
// but miss/mispredict windows, so with identical knobs it is the most
// optimistic family; the stall-on-use in-order core is the most
// pessimistic; the windowed OoO core sits between them.
TEST(IntervalCore, SuiteMeanCpiOrderingAcrossFamilies)
{
    core::CoreParams params = core::publicInfoA53();
    double sum[3] = {};
    size_t count = 0;
    for (const auto &info : ubench::all()) {
        isa::Program prog = info.builder(20000, true);
        sum[0] += familyCpi(ModelFamily::InOrder, params, prog);
        sum[1] += familyCpi(ModelFamily::Ooo, params, prog);
        sum[2] += familyCpi(ModelFamily::Interval, params, prog);
        ++count;
    }
    double inorder = sum[0] / static_cast<double>(count);
    double ooo = sum[1] / static_cast<double>(count);
    double interval = sum[2] / static_cast<double>(count);
    EXPECT_LT(interval, inorder);
    EXPECT_LE(interval, ooo * 1.05); // small slack: cache-state drift
    EXPECT_LT(ooo, inorder);
    EXPECT_GE(interval,
              1.0 / static_cast<double>(params.dispatchWidth));
}

// Interval knobs matter: shrinking the ROB or raising the mispredict
// penalty can only slow the interval core down (monotone windows).
TEST(IntervalCore, WindowKnobsAreMonotone)
{
    isa::Program mem = ubench::find("MM")->builder(30000, true);
    isa::Program ctl = ubench::find("CCh")->builder(30000, true);

    core::CoreParams base = core::publicInfoA53();
    base.robEntries = 128;
    core::CoreParams tiny_rob = base;
    tiny_rob.robEntries = 4;
    EXPECT_LE(familyCpi(ModelFamily::Interval, base, mem),
              familyCpi(ModelFamily::Interval, tiny_rob, mem));

    core::CoreParams slow_bp = base;
    slow_bp.mispredictPenalty = 40;
    EXPECT_LE(familyCpi(ModelFamily::Interval, base, ctl),
              familyCpi(ModelFamily::Interval, slow_bp, ctl));
}

// CPI stays sane over random configurations of the interval family's
// raced space (the same property the in-order/OoO spaces satisfy).
TEST(IntervalCore, CpiSaneUnderRandomRacedConfigs)
{
    validate::SniperParamSpace sspace(ModelFamily::Interval);
    isa::Program prog = ubench::find("CCm")->builder(8000, true);
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed * 7919 + 13);
        tuner::Configuration config(sspace.space().size());
        for (size_t i = 0; i < sspace.space().size(); ++i) {
            config[i] = static_cast<uint16_t>(
                rng.nextBelow(sspace.space().at(i).cardinality()));
        }
        core::CoreParams model =
            sspace.apply(config, core::publicInfoA53());
        double cpi = familyCpi(ModelFamily::Interval, model, prog);
        EXPECT_GT(cpi, 0.2) << "seed " << seed;
        EXPECT_LT(cpi, 100.0) << "seed " << seed;
    }
}
