/** @file Tuner tests: spaces, iterated racing, and the
 *  search-strategy registry (properties common to every strategy). */

#include <gtest/gtest.h>

#include <cmath>

#include "tuner/halving.hh"
#include "tuner/race.hh"
#include "tuner/random_search.hh"
#include "tuner/strategy.hh"

using namespace raceval;
using namespace raceval::tuner;

namespace
{

ParameterSpace
toySpace()
{
    ParameterSpace space;
    space.addOrdinal("a", {1, 2, 4, 8, 16});
    space.addCategorical("b", {"x", "y", "z"});
    space.addFlag("c");
    return space;
}

void
expectSameRace(const RaceResult &a, const RaceResult &b)
{
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.bestMeanCost, b.bestMeanCost);
    EXPECT_EQ(a.bestCosts, b.bestCosts);
    EXPECT_EQ(a.experimentsUsed, b.experimentsUsed);
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.elites.size(), b.elites.size());
    for (size_t e = 0; e < a.elites.size(); ++e) {
        EXPECT_EQ(a.elites[e].first, b.elites[e].first);
        EXPECT_EQ(a.elites[e].second, b.elites[e].second);
    }
}

} // namespace

TEST(Space, DeclarationAndLookup)
{
    ParameterSpace space = toySpace();
    EXPECT_EQ(space.size(), 3u);
    EXPECT_EQ(space.indexOf("b"), 1u);
    EXPECT_EQ(space.at(0).cardinality(), 5u);
    EXPECT_EQ(space.at(2).cardinality(), 2u);
    EXPECT_GT(space.logSpaceSize(), 4.0);
}

TEST(Space, ConfigurationAccessors)
{
    ParameterSpace space = toySpace();
    Configuration config(space.size());
    space.setOrdinal(config, "a", 8);
    space.setChoice(config, "b", 2);
    space.setChoice(config, "c", 1);
    EXPECT_EQ(space.ordinalValue(config, "a"), 8);
    EXPECT_EQ(space.categoricalChoice(config, "b"), 2u);
    EXPECT_TRUE(space.flagValue(config, "c"));
    EXPECT_EQ(space.describe(config), "a=8 b=z c=true");
}

TEST(Space, HashDistinguishesContent)
{
    Configuration a(4), b(4);
    EXPECT_EQ(a.hash(), b.hash());
    b[2] = 1;
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Racer, ConvergesToKnownOptimum)
{
    ParameterSpace space = toySpace();
    // Optimum: a=4, b=y, c=false.
    auto cost = [&space](const Configuration &c, size_t instance) {
        double noise = 0.01 * static_cast<double>(instance % 3);
        double err = 0.0;
        err += std::fabs(double(space.ordinalValue(c, "a")) - 4.0) / 4.0;
        err += space.categoricalChoice(c, "b") == 1 ? 0.0 : 1.0;
        err += space.flagValue(c, "c") ? 0.7 : 0.0;
        return err + noise;
    };
    RacerOptions opts;
    opts.maxExperiments = 600;
    opts.seed = 5;
    SimpleCostEvaluator evaluator(cost);
    IteratedRacer racer(space, evaluator, 10, opts);
    RaceResult result = racer.run();
    EXPECT_EQ(space.ordinalValue(result.best, "a"), 4);
    EXPECT_EQ(space.categoricalChoice(result.best, "b"), 1u);
    EXPECT_FALSE(space.flagValue(result.best, "c"));
    EXPECT_LT(result.bestMeanCost, 0.05);
}

TEST(Racer, RespectsBudget)
{
    ParameterSpace space = toySpace();
    auto cost = [](const Configuration &, size_t) { return 1.0; };
    RacerOptions opts;
    opts.maxExperiments = 200;
    SimpleCostEvaluator evaluator(cost);
    IteratedRacer racer(space, evaluator, 10, opts);
    RaceResult result = racer.run();
    EXPECT_LE(result.experimentsUsed, 200u);
}

TEST(Racer, InitialCandidateAnchorsSearch)
{
    ParameterSpace space = toySpace();
    // Cost is minimized only at one exotic point; seeding it makes the
    // racer find it even with a tiny budget.
    auto cost = [&space](const Configuration &c, size_t) {
        bool at_opt = space.ordinalValue(c, "a") == 16
            && space.categoricalChoice(c, "b") == 2
            && space.flagValue(c, "c");
        return at_opt ? 0.0 : 10.0;
    };
    Configuration seed(space.size());
    space.setOrdinal(seed, "a", 16);
    space.setChoice(seed, "b", 2);
    space.setChoice(seed, "c", 1);
    RacerOptions opts;
    opts.maxExperiments = 150;
    SimpleCostEvaluator evaluator(cost);
    IteratedRacer racer(space, evaluator, 8, opts);
    racer.addInitialCandidate(seed);
    RaceResult result = racer.run();
    EXPECT_EQ(result.bestMeanCost, 0.0);
}

TEST(Racer, DeterministicUnderSeed)
{
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t i) {
        return std::fabs(double(space.ordinalValue(c, "a")) - 2.0)
            + 0.1 * double(i % 2)
            + (space.flagValue(c, "c") ? 0.3 : 0.0);
    };
    RacerOptions opts;
    opts.maxExperiments = 300;
    opts.seed = 99;
    SimpleCostEvaluator e1(cost, 1);
    SimpleCostEvaluator e2(cost, 1);
    IteratedRacer r1(space, e1, 6, opts);
    IteratedRacer r2(space, e2, 6, opts);
    EXPECT_EQ(r1.run().best, r2.run().best);
}

TEST(Racer, TinyBudgetReturnsBestEffortResult)
{
    // A budget smaller than one racing step (candidates x 1 instance)
    // used to die on the "no survivors" assert; now the racer spends
    // what it has on a truncated first step and ranks those.
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t) {
        return double(space.ordinalValue(c, "a"));
    };
    for (uint64_t budget : {1ull, 3ull, 7ull}) {
        RacerOptions opts;
        opts.maxExperiments = budget;
        opts.seed = 3;
        SimpleCostEvaluator evaluator(cost);
        IteratedRacer racer(space, evaluator, 10, opts);
        RaceResult result = racer.run();
        EXPECT_GE(result.experimentsUsed, 1u);
        EXPECT_LE(result.experimentsUsed, budget);
        EXPECT_GE(result.iterations, 1u);
        EXPECT_FALSE(result.elites.empty());
        // The winner still gets its full per-instance cost report.
        EXPECT_EQ(result.bestCosts.size(), 10u);
    }
}

TEST(Racer, TinyBudgetPicksBestOfCostedCandidates)
{
    // With budget 2 exactly two candidates get costed; the result must
    // be the better of those two, not an arbitrary one.
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t) {
        return double(space.ordinalValue(c, "a"));
    };
    RacerOptions opts;
    opts.maxExperiments = 2;
    opts.seed = 3;
    SimpleCostEvaluator evaluator(cost);
    IteratedRacer racer(space, evaluator, 10, opts);
    RaceResult result = racer.run();
    EXPECT_EQ(result.experimentsUsed, 2u);
    ASSERT_EQ(result.elites.size(), 2u);
    EXPECT_LE(result.elites[0].second, result.elites[1].second);
    EXPECT_EQ(result.bestMeanCost, result.elites[0].second);
}

TEST(Racer, LargeEliteCountDoesNotUnderflowCandidateClamp)
{
    // eliteCount >= 61 used to hand std::clamp a lo > hi pair (UB);
    // the candidate count must now simply track eliteCount + 4.
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t instance) {
        return double(space.ordinalValue(c, "a"))
            + 0.01 * double(instance % 3);
    };
    for (unsigned elites : {61u, 64u, 100u}) {
        RacerOptions opts;
        opts.maxExperiments = 2000;
        opts.eliteCount = elites;
        opts.seed = 11;
        SimpleCostEvaluator evaluator(cost);
        IteratedRacer racer(space, evaluator, 6, opts);
        RaceResult result = racer.run();
        EXPECT_FALSE(result.elites.empty());
        EXPECT_LE(result.experimentsUsed, 2000u);
        EXPECT_EQ(space.ordinalValue(result.best, "a"), 1);
    }
}

TEST(Racer, EliteListSortedByCost)
{
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t) {
        return double(space.ordinalValue(c, "a"));
    };
    RacerOptions opts;
    opts.maxExperiments = 400;
    SimpleCostEvaluator evaluator(cost);
    IteratedRacer racer(space, evaluator, 6, opts);
    RaceResult result = racer.run();
    for (size_t i = 1; i < result.elites.size(); ++i)
        EXPECT_LE(result.elites[i - 1].second,
                  result.elites[i].second);
}

// --------------------------------------------- the strategy registry

TEST(StrategyRegistry, BuiltinsRegisteredWithDistinctSalts)
{
    auto &registry = SearchStrategyRegistry::instance();
    ASSERT_GE(registry.all().size(), 3u);
    for (const char *name : {"irace", "random", "halving"}) {
        const SearchStrategyInfo *info = registry.find(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_NE(info->make, nullptr);
        EXPECT_EQ(searchStrategySalt(name), info->fingerprintSalt);
        for (const SearchStrategyInfo &other : registry.all()) {
            if (std::string(other.name) != name) {
                EXPECT_NE(other.fingerprintSalt, info->fingerprintSalt);
            }
        }
    }
    EXPECT_EQ(registry.find("no-such-strategy"), nullptr);
    EXPECT_EQ(registry.find(defaultSearchStrategy)->name,
              std::string("irace"));
}

TEST(StrategyRegistry, IraceFactoryMatchesDirectRacer)
{
    // The refactor guard: racing through the registry must reproduce
    // a directly-constructed IteratedRacer bit for bit.
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t i) {
        return double(space.ordinalValue(c, "a")) + 0.05 * double(i % 4);
    };
    RacerOptions opts;
    opts.maxExperiments = 300;
    opts.seed = 7;
    SimpleCostEvaluator direct_eval(cost, 1);
    IteratedRacer racer(space, direct_eval, 8, opts);
    RaceResult direct = racer.run();

    SimpleCostEvaluator registry_eval(cost, 1);
    auto strategy =
        makeSearchStrategy("irace", space, registry_eval, 8, opts);
    expectSameRace(direct, strategy->run());
}

// Properties every registered strategy must satisfy, at every budget:
// never exceed maxExperiments, same seed => bit-identical result, and
// a warm (fully memoized) rerun bit-identical to the cold one -- the
// PR 2 racer bit-identity contract, extended to the whole registry.
class StrategyProperty
    : public ::testing::TestWithParam<std::tuple<const char *, uint64_t>>
{
};

TEST_P(StrategyProperty, BudgetDeterminismAndWarmRerun)
{
    const auto &[name, budget] = GetParam();
    ParameterSpace space = toySpace();
    // Optimum a=2, b=y, c=false; instances perturb the costs.
    auto cost = [&space](const Configuration &c, size_t instance) {
        double err = std::fabs(
            std::log2(double(space.ordinalValue(c, "a"))) - 1.0);
        err += space.categoricalChoice(c, "b") == 1 ? 0.0 : 0.9;
        err += space.flagValue(c, "c") ? 0.6 : 0.0;
        return err + 0.02 * double(instance % 5);
    };
    RacerOptions opts;
    opts.maxExperiments = budget;
    opts.seed = 1234;

    SimpleCostEvaluator evaluator(cost, 1);
    auto cold_strategy =
        makeSearchStrategy(name, space, evaluator, 9, opts);
    Configuration seed_config(space.size());
    space.setOrdinal(seed_config, "a", 16);
    cold_strategy->addInitialCandidate(seed_config);
    RaceResult cold = cold_strategy->run();

    EXPECT_GE(cold.experimentsUsed, 1u);
    EXPECT_LE(cold.experimentsUsed, budget);
    EXPECT_GE(cold.iterations, 1u);
    EXPECT_FALSE(cold.elites.empty());
    EXPECT_EQ(cold.bestCosts.size(), 9u);
    for (size_t e = 1; e < cold.elites.size(); ++e)
        EXPECT_LE(cold.elites[e - 1].second, cold.elites[e].second);

    // Warm rerun: same evaluator, every value now memoized. The
    // trajectory may not notice (strategy-local budget accounting).
    auto warm_strategy =
        makeSearchStrategy(name, space, evaluator, 9, opts);
    warm_strategy->addInitialCandidate(seed_config);
    expectSameRace(cold, warm_strategy->run());

    // Cold rerun on a fresh evaluator: same seed, same everything.
    SimpleCostEvaluator fresh(cost, 1);
    auto again_strategy =
        makeSearchStrategy(name, space, fresh, 9, opts);
    again_strategy->addInitialCandidate(seed_config);
    expectSameRace(cold, again_strategy->run());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyProperty,
    ::testing::Combine(::testing::Values("irace", "random", "halving"),
                       ::testing::Values(1ull, 7ull, 60ull, 400ull)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_budget"
            + std::to_string(std::get<1>(info.param));
    });

TEST(RandomSearch, FindsEasyOptimumAtModestBudget)
{
    // 30-point space, 600-experiment budget over 10 instances = 60
    // uniform candidates: with this seed the optimum is sampled and
    // must be returned (deterministic, so this is a stable check).
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t instance) {
        double err =
            std::fabs(double(space.ordinalValue(c, "a")) - 4.0) / 4.0;
        err += space.categoricalChoice(c, "b") == 1 ? 0.0 : 1.0;
        err += space.flagValue(c, "c") ? 0.7 : 0.0;
        return err + 0.01 * double(instance % 3);
    };
    RacerOptions opts;
    opts.maxExperiments = 600;
    opts.seed = 5;
    SimpleCostEvaluator evaluator(cost, 1);
    RandomSearchStrategy search(space, evaluator, 10, opts);
    RaceResult result = search.run();
    EXPECT_EQ(space.ordinalValue(result.best, "a"), 4);
    EXPECT_EQ(space.categoricalChoice(result.best, "b"), 1u);
    EXPECT_FALSE(space.flagValue(result.best, "c"));
    EXPECT_LE(result.experimentsUsed, 600u);
    EXPECT_EQ(result.iterations, 1u);
}

TEST(Halving, FindsEasyOptimumAtModestBudget)
{
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t instance) {
        double err =
            std::fabs(double(space.ordinalValue(c, "a")) - 4.0) / 4.0;
        err += space.categoricalChoice(c, "b") == 1 ? 0.0 : 1.0;
        err += space.flagValue(c, "c") ? 0.7 : 0.0;
        return err + 0.01 * double(instance % 3);
    };
    RacerOptions opts;
    opts.maxExperiments = 600;
    opts.seed = 5;
    SimpleCostEvaluator evaluator(cost, 1);
    SuccessiveHalvingStrategy search(space, evaluator, 10, opts);
    RaceResult result = search.run();
    EXPECT_EQ(space.ordinalValue(result.best, "a"), 4);
    EXPECT_EQ(space.categoricalChoice(result.best, "b"), 1u);
    EXPECT_FALSE(space.flagValue(result.best, "c"));
    EXPECT_LE(result.experimentsUsed, 600u);
    // Multiple brackets: the budget covers several halving runs.
    EXPECT_GE(result.iterations, 1u);
}

TEST(Halving, InitialCandidateNeverDropped)
{
    // A cost function minimized only at one exotic point; seeding it
    // must surface it even though uniform sampling would likely miss
    // the incentive to keep it.
    ParameterSpace space = toySpace();
    auto cost = [&space](const Configuration &c, size_t) {
        bool at_opt = space.ordinalValue(c, "a") == 16
            && space.categoricalChoice(c, "b") == 2
            && space.flagValue(c, "c");
        return at_opt ? 0.0 : 10.0;
    };
    Configuration seed(space.size());
    space.setOrdinal(seed, "a", 16);
    space.setChoice(seed, "b", 2);
    space.setChoice(seed, "c", 1);
    for (const char *name : {"random", "halving"}) {
        RacerOptions opts;
        opts.maxExperiments = 150;
        opts.seed = 3;
        SimpleCostEvaluator evaluator(cost, 1);
        auto strategy = makeSearchStrategy(name, space, evaluator, 8,
                                           opts);
        strategy->addInitialCandidate(seed);
        RaceResult result = strategy->run();
        EXPECT_EQ(result.bestMeanCost, 0.0) << name;
    }
}
