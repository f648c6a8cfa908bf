/**
 * @file
 * Tuning turnaround (paper §III-C): the paper reports ~7h for a 10K
 * budget and ~2d for 100K on a 24-context host; evaluation throughput
 * bounds the whole methodology. This binary races the same A53 tuning
 * task (fixed budget, fixed seed) down three paths and reports
 * experiments/second of each:
 *
 *   pre-engine   every evaluation functionally re-executes the
 *                benchmark (the seed repo's hot path),
 *   engine/cold  the evaluation engine with empty caches: each
 *                benchmark is recorded once, every evaluation is a
 *                trace replay (one thread-pool item per fresh
 *                evaluation), batches are deduplicated,
 *   engine/warm  the same engine again: the EvalCache serves the
 *                whole race.
 *
 * The three paths produce bit-identical RaceResults (checked); the
 * speedup is pure evaluation-engine machinery.
 */

#include <benchmark/benchmark.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "core/inorder.hh"
#include "engine/engine.hh"
#include "obs/trace.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"
#include "vm/functional.hh"

using namespace raceval;

namespace
{

/** The shared racing task: built once, raced by every path. */
struct Task
{
    validate::SniperParamSpace sspace{false};
    std::vector<isa::Program> programs;
    std::unique_ptr<validate::HardwareOracle> oracle;
    core::CoreParams base = core::publicInfoA53();
    tuner::RacerOptions ropts;

    Task()
    {
        oracle = std::make_unique<validate::HardwareOracle>(
            hw::makeMachine(hw::secretA53(), false));
        for (const auto &info : ubench::all())
            programs.push_back(ubench::build(info));
        // Pre-measure the board outside the timed region, exactly like
        // the validation flow does before racing.
        for (const isa::Program &prog : programs)
            oracle->measure(prog);
        ropts.maxExperiments = bench::budgetFromEnv(1200);
        ropts.seed = 20190324;
    }

    double
    cpiError(const core::CoreStats &sim, const isa::Program &prog)
    {
        double hw_cpi = oracle->measure(prog).cpi();
        return hw_cpi > 0.0 ? std::abs(sim.cpi() - hw_cpi) / hw_cpi
                            : 0.0;
    }
};

Task &
task()
{
    static Task instance;
    return instance;
}

struct PathResult
{
    double seconds = 0.0;
    uint64_t experiments = 0; //!< budget-consuming evaluations
    std::optional<tuner::RaceResult> race;
};

PathResult preEngine, engineCold, engineWarm;
/** Evaluation requests the race trajectory issues (same all paths). */
uint64_t requestsPerRace = 0;
std::unique_ptr<engine::EvalEngine> sharedEngine;
engine::EngineStats finalEngineStats;

std::unique_ptr<engine::EvalEngine>
makeEngine()
{
    Task &t = task();
    auto eng = std::make_unique<engine::EvalEngine>(
        core::ModelFamily::InOrder);
    for (const isa::Program &prog : t.programs)
        eng->addInstance(prog);
    eng->setModelFn([&t](const tuner::Configuration &config) {
        return t.sspace.apply(config, t.base);
    });
    eng->setCostFn(
        [&t](const core::CoreStats &sim, size_t instance) {
            return t.cpiError(sim, t.programs[instance]);
        },
        /*cost_tag=*/1);
    return eng;
}

template <typename Fn>
PathResult
timedRace(Fn &&make_racer)
{
    PathResult out;
    auto start = std::chrono::steady_clock::now();
    tuner::RaceResult result = make_racer();
    out.seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    out.experiments = result.experimentsUsed;
    out.race = std::move(result);
    return out;
}

/** One pre-engine race: live functional execution per fresh pair,
 *  memoized and parallelized by a SimpleCostEvaluator. */
PathResult
racePreEngine()
{
    Task &t = task();
    tuner::CostFn live = [&t](const tuner::Configuration &config,
                              size_t instance) {
        core::CoreParams model = t.sspace.apply(config, t.base);
        vm::FunctionalCore source(t.programs[instance]);
        core::InOrderCore sim(model);
        return t.cpiError(sim.run(source), t.programs[instance]);
    };
    tuner::SimpleCostEvaluator live_eval(live);
    return timedRace([&] {
        auto strategy = tuner::makeSearchStrategy(
            bench::strategyName(), t.sspace.space(), live_eval,
            t.programs.size(), t.ropts);
        strategy->addInitialCandidate(t.sspace.encode(t.base));
        return strategy->run();
    });
}

/** One race on @p eng: cold or warm, depending on its cache. */
PathResult
raceEngine(engine::EvalEngine &eng)
{
    Task &t = task();
    return timedRace([&] {
        auto strategy = tuner::makeSearchStrategy(
            bench::strategyName(), t.sspace.space(), eng,
            t.programs.size(), t.ropts);
        strategy->addInitialCandidate(t.sspace.encode(t.base));
        return strategy->run();
    });
}

void
BM_PreEngineRacing(benchmark::State &state)
{
    for (auto _ : state)
        preEngine = racePreEngine();
    state.counters["experiments"] =
        static_cast<double>(preEngine.experiments);
    state.counters["s"] = preEngine.seconds;
}

void
BM_EngineRacingCold(benchmark::State &state)
{
    for (auto _ : state) {
        sharedEngine = makeEngine();
        engineCold = raceEngine(*sharedEngine);
        requestsPerRace = sharedEngine->stats().requests;
    }
    state.counters["experiments"] =
        static_cast<double>(engineCold.experiments);
    state.counters["s"] = engineCold.seconds;
}

void
BM_EngineRacingWarm(benchmark::State &state)
{
    if (!sharedEngine)
        sharedEngine = makeEngine(); // filtered run: warm == cold
    for (auto _ : state)
        engineWarm = raceEngine(*sharedEngine);
    finalEngineStats = sharedEngine->stats();
    state.counters["s"] = engineWarm.seconds;
}

BENCHMARK(BM_PreEngineRacing)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(BM_EngineRacingCold)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(BM_EngineRacingWarm)->Unit(benchmark::kSecond)->Iterations(1);

double
rate(const PathResult &path)
{
    return path.seconds > 0.0
        ? static_cast<double>(requestsPerRace) / path.seconds : 0.0;
}

bool
sameRace(const tuner::RaceResult &a, const tuner::RaceResult &b)
{
    return a.best == b.best && a.bestMeanCost == b.bestMeanCost
        && a.bestCosts == b.bestCosts
        && a.experimentsUsed == b.experimentsUsed
        && a.iterations == b.iterations;
}

/** @return the median of @p values (reordered). */
double
median(std::vector<double> &values)
{
    auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

/** cold_speedup, which perf_replay_guard requires to stay >= 1: the
 *  median pre-engine / cold wall-time ratio over pairs of the same
 *  parallel races, run back to back; the gbench passes are the first
 *  pair. At smoke budget nearly every racing step waits on one new
 *  instance's recording, so the ratio sits near 1.1 and one pair is
 *  within a shared host's noise of 1: smoke mode runs smokeColdPairs.
 *  A full-budget race is long enough for one pair. Every extra race
 *  must repeat its path's RaceResult; clears @p identical if not. */
constexpr size_t smokeColdPairs = 7;

double
coldSpeedup(bool &identical)
{
    const size_t pairs = bench::smokeScaled<size_t>(1, smokeColdPairs);
    std::vector<double> ratios{preEngine.seconds / engineCold.seconds};
    while (ratios.size() < pairs) {
        PathResult pre = racePreEngine();
        auto eng = makeEngine();
        PathResult cold = raceEngine(*eng);
        identical = identical && sameRace(*pre.race, *preEngine.race)
            && sameRace(*cold.race, *engineCold.race);
        ratios.push_back(pre.seconds / cold.seconds);
    }
    return median(ratios);
}

/** @return this process's CPU time in seconds, summed over every
 *  thread. Pool workers idle on a condition variable add nothing, and
 *  time other processes hold the cores is not charged. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Interleaved (paused, live) pairs of the telemetry A-B. */
constexpr size_t telemetryPairs = 7;

/** Telemetry A-B: the same cold race with span recording paused vs
 *  live, in telemetryPairs interleaved pairs, each race timed on
 *  process CPU time. The overhead is the median of the per-pair
 *  100 x (on/off - 1), so one disturbed pair moves one value, not the
 *  result. Feeds the perf_obs_guard ctest entry: enabled-mode
 *  overhead must stay in the low single digits and the RaceResult
 *  must stay bit-identical with tracing on. */
void
measureTelemetryOverhead()
{
    if (!engineCold.race)
        return; // filtered run

    // The A-B needs a live trace session so the "on" side actually
    // records spans; open a throwaway one when --trace was not given.
    const char *temp_trace = "tuning_throughput.tmp-trace.json";
    bool own_session = !obs::tracingActive();
    if (own_session)
        obs::startTracing(temp_trace);

    bool identical = true;
    auto cpu_race = [&identical](bool paused) {
        obs::setTracingPaused(paused);
        auto eng = makeEngine();
        double start = processCpuSeconds();
        PathResult r = raceEngine(*eng);
        double cpu = processCpuSeconds() - start;
        identical = identical && sameRace(*r.race, *engineCold.race);
        return cpu;
    };

    std::vector<double> off, on, pcts;
    for (size_t pair = 0; pair < telemetryPairs; ++pair) {
        off.push_back(cpu_race(true));
        on.push_back(cpu_race(false));
        pcts.push_back(100.0 * (on.back() / off.back() - 1.0));
    }
    obs::setTracingPaused(false);
    if (own_session) {
        obs::stopTracing();
        std::remove(temp_trace);
    }

    double off_cpu = median(off), on_cpu = median(on);
    double overhead_pct = median(pcts);
    std::printf("\ntelemetry overhead (cold race, process CPU, median "
                "of %zu pairs): off %.3f s, on %.3f s, %+.2f%%; "
                "bit-identical: %s\n",
                telemetryPairs, off_cpu, on_cpu, overhead_pct,
                identical ? "yes" : "NO (BUG)");
    bench::jsonMetric("telemetry_off_cpu_seconds", off_cpu);
    bench::jsonMetric("telemetry_on_cpu_seconds", on_cpu);
    bench::jsonMetric("telemetry_overhead_pct", overhead_pct);
    bench::jsonMetric("telemetry_bit_identical", identical ? 1.0 : 0.0);
}

void
report()
{
    if (!preEngine.race || !engineCold.race || !engineWarm.race)
        return; // filtered run; gbench output already printed

    bool identical = sameRace(*preEngine.race, *engineCold.race)
        && sameRace(*engineCold.race, *engineWarm.race);
    double cold_speedup = coldSpeedup(identical);

    std::printf("\n=== racing throughput: %llu-experiment A53 task, "
                "%llu evaluation requests per race ===\n",
                static_cast<unsigned long long>(preEngine.experiments),
                static_cast<unsigned long long>(requestsPerRace));
    std::printf("%-14s %10s %16s %10s\n", "path", "seconds",
                "experiments/s", "speedup");
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "pre-engine",
                preEngine.seconds, rate(preEngine), 1.0);
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "engine/cold",
                engineCold.seconds, rate(engineCold),
                preEngine.seconds / engineCold.seconds);
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "engine/warm",
                engineWarm.seconds, rate(engineWarm),
                preEngine.seconds / engineWarm.seconds);
    std::printf("cold speedup: %.2fx (median of %zu pre-engine/cold "
                "pair(s))\n",
                cold_speedup,
                bench::smokeScaled<size_t>(1, smokeColdPairs));
    std::printf("RaceResults bit-identical across paths: %s\n",
                identical ? "yes" : "NO (BUG)");
    bench::printEngineStats(finalEngineStats);
    std::printf("\npaper scale: 10K trials ~= 7 hours, 100K ~= 2 days "
                "on 24 threads; scale the experiments/s column to "
                "project this host.\n");

    bench::jsonMetric("experiments", double(preEngine.experiments));
    bench::jsonMetric("requests_per_race", double(requestsPerRace));
    bench::jsonMetric("pre_engine_seconds", preEngine.seconds);
    bench::jsonMetric("engine_cold_seconds", engineCold.seconds);
    bench::jsonMetric("engine_warm_seconds", engineWarm.seconds);
    bench::jsonMetric("pre_engine_exp_per_s", rate(preEngine));
    bench::jsonMetric("engine_cold_exp_per_s", rate(engineCold));
    bench::jsonMetric("engine_warm_exp_per_s", rate(engineWarm));
    bench::jsonMetric("cold_speedup", cold_speedup);
    bench::jsonMetric("warm_speedup",
                      preEngine.seconds / engineWarm.seconds);
    bench::jsonMetric("bit_identical", identical ? 1.0 : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::parseGbenchArgs(argc, argv,
                           "Racing throughput: pre-engine live "
                           "execution vs the trace-replay evaluation "
                           "engine (cold and warm cache).");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    report();
    measureTelemetryOverhead();
    bench::writeJson(&finalEngineStats);
    return 0;
}
