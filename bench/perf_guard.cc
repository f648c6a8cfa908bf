/**
 * @file
 * Perf-regression guard over the bench drivers' smoke blobs: one table
 * of rules, each keyed by the blob file name it applies to.
 *
 * BENCH_tuning_throughput.json must show bit-identical pre-engine /
 * cold / warm races, a packed cold path no slower than functional
 * re-execution, bit-identical races with tracing on, and telemetry
 * overhead under 10% (the steady-state cost is ~1-2%; the slack
 * absorbs timer noise on loaded CI hosts while still catching a span
 * on a per-instruction path). BENCH_step_cost.json must show
 * bit-identical step bodies and a >= 1.1x OoO A-B against the frozen
 * pre-flattening step (room for memory-bound classes, where the shared
 * cache model bounds the win, and for contended runners).
 *
 * Run as a plain binary: `perf_guard --guard <name> <blob.json>`.
 * Each rule belongs to one named guard (replay, obs, step), and each
 * guard is its own ctest entry (perf_<name>_guard). The blob's file
 * name must match the guard's rules; the guard fails when any rule
 * does.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

enum class Cmp
{
    Eq, //!< value == threshold
    Ge, //!< value >= threshold
    Le, //!< value <= threshold
};

struct Rule
{
    const char *guard;  //!< guard the rule belongs to (--guard)
    const char *blob;   //!< file name of the blob the rule applies to
    const char *metric; //!< flat `"metric": <number>` key
    Cmp cmp;
    double threshold;
    const char *failure; //!< what a violation means
};

/** Upper bound on the telemetry A-B overhead, percent. */
constexpr double maxTelemetryOverheadPct = 10.0;

const Rule rules[] = {
    {"replay", "BENCH_tuning_throughput.json", "bit_identical", Cmp::Eq,
     1.0, "the engine paths diverged from the pre-engine race"},
    {"replay", "BENCH_tuning_throughput.json", "cold_speedup", Cmp::Ge,
     1.0, "the packed cold path is slower than functional re-execution"},
    {"obs", "BENCH_tuning_throughput.json", "telemetry_bit_identical",
     Cmp::Eq, 1.0,
     "racing with tracing on diverged from racing with it off"},
    {"obs", "BENCH_tuning_throughput.json", "telemetry_overhead_pct",
     Cmp::Le, maxTelemetryOverheadPct,
     "span recording slowed the cold race"},
    {"step", "BENCH_step_cost.json", "step_bit_identical", Cmp::Eq, 1.0,
     "the OoO step diverged from the frozen baseline, or interval's "
     "fast path from its generic body"},
    {"step", "BENCH_step_cost.json", "step_speedup", Cmp::Ge, 1.1,
     "the flattened OoO step lost its margin over the pre-flattening "
     "baseline"},
};

const char *
cmpText(Cmp cmp)
{
    switch (cmp) {
      case Cmp::Eq: return "==";
      case Cmp::Ge: return ">=";
      case Cmp::Le: return "<=";
    }
    return "?";
}

bool
holds(Cmp cmp, double value, double threshold)
{
    switch (cmp) {
      case Cmp::Eq: return value == threshold;
      case Cmp::Ge: return value >= threshold;
      case Cmp::Le: return value <= threshold;
    }
    return false;
}

/** Extract `"key": <number>` from a JSON blob (flat search; the bench
 *  blobs never nest a duplicate metric name). */
bool
findNumber(const std::string &text, const std::string &key, double &out)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    return std::sscanf(text.c_str() + pos + needle.size(), " %lf",
                       &out) == 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --guard <name> <blob.json>\nrules:\n",
                 argv0);
    for (const Rule &rule : rules)
        std::fprintf(stderr, "  %-6s %s: %s %s %g\n", rule.guard,
                     rule.blob, rule.metric, cmpText(rule.cmp),
                     rule.threshold);
    return 2;
}

/** Check @p guard's rules against the blob at @p path.
 *  @return failures, or -1 when the blob is unreadable, is not the
 *  guard's blob or lacks a metric. */
int
checkBlob(const std::string &guard, const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "perf_guard: cannot read '%s' (run its smoke test "
                     "first)\n", path.c_str());
        return -1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    int checked = 0, failures = 0;
    for (const Rule &rule : rules) {
        if (guard != rule.guard)
            continue;
        if (name != rule.blob) {
            std::fprintf(stderr, "perf_guard: the %s guard reads %s, "
                         "not '%s'\n", guard.c_str(), rule.blob,
                         name.c_str());
            return -1;
        }
        ++checked;
        double value = 0.0;
        if (!findNumber(text, rule.metric, value)) {
            std::fprintf(stderr, "perf_guard: '%s' is missing %s\n",
                         path.c_str(), rule.metric);
            return -1;
        }
        if (holds(rule.cmp, value, rule.threshold)) {
            std::printf("perf_guard: OK %s = %g (%s %g)\n", rule.metric,
                        value, cmpText(rule.cmp), rule.threshold);
            continue;
        }
        std::fprintf(stderr,
                     "perf_guard: FAIL %s = %g (expected %s %g): %s\n",
                     rule.metric, value, cmpText(rule.cmp),
                     rule.threshold, rule.failure);
        ++failures;
    }
    if (checked == 0) {
        std::fprintf(stderr, "perf_guard: no guard named '%s'\n",
                     guard.c_str());
        return -1;
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
        usage(argv[0]);
        return 0;
    }
    if (argc != 4 || std::strcmp(argv[1], "--guard") != 0)
        return usage(argv[0]);
    int failures = checkBlob(argv[2], argv[3]);
    if (failures < 0)
        return 2;
    return failures ? 1 : 0;
}
