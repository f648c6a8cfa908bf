/**
 * @file
 * Shared helpers for the paper-reproduction bench harnesses.
 */

#ifndef RACEVAL_BENCH_COMMON_HH
#define RACEVAL_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "core/timing_model.hh"
#include "engine/engine.hh"
#include "obs/step_profiler.hh"
#include "obs/trace.hh"
#include "scenario/scenario.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"
#include "validate/flow.hh"

#include "workload/workload.hh"

namespace raceval::bench
{

/**
 * True when the driver runs in smoke mode (set by --smoke). Smoke mode
 * shrinks racing budgets, workload instruction counts and search probe
 * counts so every driver finishes in seconds; the ctest smoke_* tests
 * use it to keep refactors from silently breaking the binaries.
 */
inline bool &
smokeMode()
{
    static bool smoke = false;
    return smoke;
}

/** @return @p full normally, @p reduced under --smoke. */
template <typename T>
inline T
smokeScaled(T full, T reduced)
{
    return smokeMode() ? reduced : full;
}

/** Search strategy selected with --strategy (default: irace). */
inline std::string &
strategyName()
{
    static std::string name = tuner::defaultSearchStrategy;
    return name;
}

/** Target board selected with --target ("" = the driver's historical
 *  default; see benchTarget()). */
inline std::string &
targetName()
{
    static std::string name;
    return name;
}

/** True when --target was given explicitly; drivers whose default
 *  behavior spans several boards (family_comparison) narrow to the
 *  selected one. */
inline bool &
targetExplicit()
{
    static bool explicit_ = false;
    return explicit_;
}

/**
 * Resolve the board a driver should validate against: the --target
 * selection when given, else @p fallback (the driver's pre-scenario
 * default, so existing invocations keep their exact behavior).
 */
inline const scenario::TargetBoard &
benchTarget(const char *fallback)
{
    return scenario::targetOrDie(
        targetName().empty() ? fallback : targetName());
}

/** Workload suite selected with --suite ("" = the driver's default). */
inline std::string &
suiteName()
{
    static std::string name;
    return name;
}

/**
 * Resolve the workload suite a driver should tune over: the --suite
 * selection when given, else @p fallback. Drivers that *race* their
 * suite must reject held-out roles themselves (the engine enforces
 * the contract too, but a CLI error beats a panic).
 */
inline const scenario::WorkloadSuite &
benchSuite(const char *fallback)
{
    return scenario::suiteOrDie(
        suiteName().empty() ? fallback : suiteName());
}

/** Validate and record a --suite argument (exits on unknown). */
inline void
setSuiteArg(const char *argv0, const std::string &name)
{
    if (!scenario::findSuite(name)) {
        std::fprintf(stderr, "%s: unknown workload suite '%s' "
                     "(try --list)\n", argv0, name.c_str());
        std::exit(2);
    }
    suiteName() = name;
}

/// @name --json result blobs
/// Every driver accepts `--json <path>` and dumps a machine-readable
/// blob there: driver name, every recorded metric, wall time, and
/// (when the driver runs the engine) the engine cache statistics.
/// The perf trajectory of the repo accumulates as BENCH_*.json files.
/// @{

/** Target path of the --json blob ("" = disabled). */
inline std::string &
jsonPath()
{
    static std::string path;
    return path;
}

/** Driver name recorded into the blob (argv[0] basename). */
inline std::string &
driverName()
{
    static std::string name = "driver";
    return name;
}

/** Wall-clock anchor, set by parseDriverArgs(). */
inline std::chrono::steady_clock::time_point &
driverStart()
{
    static auto start = std::chrono::steady_clock::now();
    return start;
}

/** Recorded (metric name, value) pairs. */
inline std::vector<std::pair<std::string, double>> &
jsonMetrics()
{
    static std::vector<std::pair<std::string, double>> metrics;
    return metrics;
}

/** Record one metric into the --json blob. */
inline void
jsonMetric(const std::string &name, double value)
{
    jsonMetrics().emplace_back(name, value);
}

/** Target path of the --trace Chrome trace ("" = disabled). */
inline std::string &
tracePath()
{
    static std::string path;
    return path;
}

/**
 * Finish the driver's telemetry: print the --profile table and close
 * the --trace session (writes the Chrome trace file). Idempotent;
 * writeJson() calls it before writing the --json blob.
 */
inline void
finishTelemetry()
{
    if (obs::stepProfilingEnabled()) {
        std::string report = obs::stepProfileReport();
        if (!report.empty())
            std::printf("\n%s", report.c_str());
    }
    if (obs::tracingActive())
        obs::stopTracing();
}

/**
 * Write the --json blob (telemetry still finishes when --json was not
 * given; the blob itself is skipped).
 *
 * @param engine_stats engine report to embed, or nullptr.
 */
inline void
writeJson(const engine::EngineStats *engine_stats = nullptr)
{
    finishTelemetry();
    if (jsonPath().empty())
        return;
    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - driverStart()).count();
    JsonWriter w(/*pretty=*/true);
    w.beginObject()
        .field("driver", driverName())
        .field("smoke", smokeMode())
        .field("wall_seconds", wall);
    w.beginObject("metrics");
    for (const auto &[name, value] : jsonMetrics())
        w.field(name.c_str(), value);
    w.endObject();
    if (engine_stats)
        w.rawField("engine", engine_stats->json());
    if (obs::stepProfilingEnabled())
        w.rawField("step_profile", obs::stepProfileJson());
    w.endObject();
    std::FILE *file = std::fopen(jsonPath().c_str(), "w");
    if (!file) {
        std::fprintf(stderr, "cannot write json blob '%s'\n",
                     jsonPath().c_str());
        std::exit(1);
    }
    const std::string &blob = w.str();
    std::fwrite(blob.data(), 1, blob.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
}

/// @}

/**
 * `--list`: enumerate everything a driver can be pointed at -- the
 * timing-model families, the search strategies, the validation target
 * boards (--target), the workload suites with their hold-out roles,
 * the micro-benchmark suite and the SPEC stand-in workloads. Every
 * section is rendered from its table (core::modelFamilies(),
 * scenario::targets(), ...), so a new row shows up in every driver
 * without touching any of them.
 */
inline void
printList()
{
    std::printf("timing-model families:\n");
    for (const auto &info : core::modelFamilies())
        std::printf("  %-9s %s\n", info.name, info.description);

    std::printf("\nsearch strategies (--strategy):\n");
    for (const auto &info :
         tuner::SearchStrategyRegistry::instance().all())
        std::printf("  %-9s %s\n", info.name, info.description);

    std::printf("\nvalidation target boards (--target):\n");
    for (const auto &board : scenario::targets()) {
        std::string families;
        for (core::ModelFamily family : board.families) {
            if (!families.empty())
                families += ",";
            families += core::modelFamilyName(family);
        }
        std::printf("  %-14s %s [families: %s]\n", board.name,
                    board.description, families.c_str());
    }

    std::printf("\nworkload suites:\n");
    for (const auto &suite : scenario::workloadSuites()) {
        std::printf("  %-14s %-9s %s\n", suite.name,
                    scenario::workloadRoleName(suite.role),
                    suite.description);
    }

    std::printf("\nmicro-benchmarks (paper Table I):\n");
    for (const auto &info : ubench::all()) {
        std::printf("  %-12s %-14s %10llu paper insts\n", info.name,
                    ubench::categoryName(info.category),
                    static_cast<unsigned long long>(
                        info.paperDynInsts));
    }

    std::printf("\nSPEC CPU2017 stand-in workloads (paper Table II, "
                "held out):\n");
    for (const auto &info : workload::all()) {
        std::printf("  %-12s %10llu paper insts\n", info.name,
                    static_cast<unsigned long long>(
                        info.paperDynInsts));
    }
}

/** True when --strategy was given explicitly (vs the irace default);
 *  strategy_comparison uses this to narrow its sweep. */
inline bool &
strategyExplicit()
{
    static bool explicit_ = false;
    return explicit_;
}

/** Validate and record a --strategy argument (exits on unknown). */
inline void
setStrategyArg(const char *argv0, const std::string &name)
{
    if (!tuner::SearchStrategyRegistry::instance().find(name)) {
        std::fprintf(stderr, "%s: unknown search strategy '%s' "
                     "(try --list)\n", argv0, name.c_str());
        std::exit(2);
    }
    strategyName() = name;
    strategyExplicit() = true;
}

/** Validate and record a --target argument (exits on unknown). */
inline void
setTargetArg(const char *argv0, const std::string &name)
{
    if (!scenario::findTarget(name)) {
        std::fprintf(stderr, "%s: unknown target board '%s' "
                     "(try --list)\n", argv0, name.c_str());
        std::exit(2);
    }
    targetName() = name;
    targetExplicit() = true;
}

/** Shared preamble of both arg parsers: stamp the wall clock and
 *  record the driver name for the --json blob. */
inline void
beginDriver(int argc, char **argv)
{
    driverStart() = std::chrono::steady_clock::now();
    if (argc > 0) {
        std::string name = argv[0];
        size_t slash = name.find_last_of('/');
        driverName() =
            slash == std::string::npos ? name : name.substr(slash + 1);
    }
}

/** Shared postamble of both arg parsers: open the --trace session
 *  when --trace was given. */
inline void
beginTelemetry()
{
    if (!tracePath().empty())
        obs::startTracing(tracePath());
}

/** @return the value after flag argv[i] (advancing i), or exit 2 with
 *  "<flag> needs a <what>" when it is missing. */
inline const char *
flagValue(int argc, char **argv, int &i, const char *what)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a %s\n", argv[0], argv[i],
                     what);
        std::exit(2);
    }
    return argv[++i];
}

/**
 * Consume argv[i] when it is one of the flags both parsers share:
 * --list, --json, --trace, --profile, --strategy, --target.
 *
 * @return false when argv[i] is not a shared flag.
 */
inline bool
parseSharedFlag(int argc, char **argv, int &i)
{
    const std::string arg = argv[i];
    if (arg == "--list") {
        printList();
        std::exit(0);
    } else if (arg == "--json") {
        jsonPath() = flagValue(argc, argv, i, "path");
    } else if (arg == "--trace") {
        tracePath() = flagValue(argc, argv, i, "path");
    } else if (arg == "--profile") {
        obs::setStepProfiling(true);
    } else if (arg == "--strategy") {
        setStrategyArg(argv[0], flagValue(argc, argv, i, "name"));
    } else if (arg == "--target") {
        setTargetArg(argv[0], flagValue(argc, argv, i, "board"));
    } else {
        return false;
    }
    return true;
}

/**
 * Parse the standard driver command line. Every bench accepts
 * --help/-h (print usage, exit 0), --smoke (tiny budgets for CI) and
 * --json <path> (machine-readable result blob); anything else is an
 * error so typos fail loudly.
 *
 * @param what one-line description printed by --help.
 */
inline void
parseDriverArgs(int argc, char **argv, const char *what)
{
    beginDriver(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--smoke] [--list] [--json <path>] "
                        "[--trace <path>] [--profile] "
                        "[--strategy <name>] "
                        "[--target <board>]"
                        "\n\n%s\n\n"
                        "  --smoke        reduced budgets/workloads for "
                        "CI smoke runs\n"
                        "  --list         enumerate workloads, target "
                        "boards, model families and "
                        "search strategies\n"
                        "  --json <path>  write a machine-readable "
                        "result blob\n"
                        "  --trace <path> record a Chrome trace-event "
                        "JSON (chrome://tracing, Perfetto)\n"
                        "  --profile      sampled per-phase step-cost "
                        "profile (table on exit; step_profile "
                        "object in the --json blob)\n"
                        "  --strategy <name>  search strategy for the "
                        "tuning step (default irace)\n"
                        "  --target <board>   validation target board "
                        "(default per driver; see --list)\n"
                        "  --suite <name>     workload suite to tune "
                        "over (default per driver; see --list)\n"
                        "  RACEVAL_BUDGET=<n> overrides the racing "
                        "budget\n", argv[0], what);
            std::exit(0);
        } else if (arg == "--smoke") {
            smokeMode() = true;
        } else if (arg == "--suite") {
            setSuiteArg(argv[0], flagValue(argc, argv, i, "name"));
        } else if (!parseSharedFlag(argc, argv, i)) {
            std::fprintf(stderr, "%s: unknown argument '%s' "
                         "(try --help)\n", argv[0], arg.c_str());
            std::exit(2);
        }
    }
    beginTelemetry();
}

/**
 * Pre-parse for the Google Benchmark drivers: consume --help, --smoke
 * and --json <path> ourselves (compacting argv) and rewrite smoke mode
 * into a tiny --benchmark_min_time, so the gbench binaries share the
 * ctest smoke/json interface. Call before benchmark::Initialize.
 */
inline void
parseGbenchArgs(int &argc, char **argv, const char *what)
{
    beginDriver(argc, argv);
    static char min_time[] = "--benchmark_min_time=0.01s";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--smoke] [--list] [--json <path>] "
                        "[--trace <path>] [--profile] "
                        "[--strategy <name>] "
                        "[--target <board>] [--benchmark_* flags]"
                        "\n\n%s\n", argv[0], what);
            std::exit(0);
        } else if (arg == "--smoke") {
            smokeMode() = true;
            argv[out++] = min_time;
        } else if (!parseSharedFlag(argc, argv, i)) {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    beginTelemetry();
}

/** Racing budget: RACEVAL_BUDGET env overrides the scaled default. */
inline uint64_t
budgetFromEnv(uint64_t fallback = 6000)
{
    if (const char *env = std::getenv("RACEVAL_BUDGET"))
        return std::strtoull(env, nullptr, 10);
    return smokeScaled<uint64_t>(fallback, 150);
}

/** Standard flow options for benches. RACEVAL_EVAL_CACHE=<path>
 *  persists the engine's EvalCache there, so repeated driver runs
 *  start warm. */
inline validate::FlowOptions
benchFlowOptions()
{
    validate::FlowOptions opts;
    opts.budget = budgetFromEnv();
    opts.threads = 0; // all hardware threads
    opts.strategy = strategyName();
    opts.verbose = false;
    if (const char *env = std::getenv("RACEVAL_EVAL_CACHE"))
        opts.evalCachePath = env;
    return opts;
}

/**
 * Build a SPEC stand-in workload, at its Table II scaled instruction
 * count normally and at a fraction of it under --smoke.
 */
inline isa::Program
workloadProgram(const workload::WorkloadInfo &info)
{
    uint64_t target = workload::scaledCount(info.paperDynInsts);
    if (smokeMode())
        target /= 16;
    return info.builder(target);
}

inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

/** Print (and record into the --json blob) a paper-vs-measured row. */
inline void
paperVsMeasured(const char *metric, double paper, double measured)
{
    std::printf("%-44s paper %8.2f | measured %8.2f\n", metric, paper,
                measured);
    jsonMetric(metric, measured);
}

/** Print the engine report of a flow (and keep it for writeJson). */
inline void
printEngineStats(const engine::EngineStats &stats)
{
    std::printf("\n%s\n", stats.summary().c_str());
}

} // namespace raceval::bench

#endif // RACEVAL_BENCH_COMMON_HH
