#include "obs/step_profiler.hh"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/log.hh"

namespace raceval::obs
{

namespace detail
{

std::atomic<bool> gStepProfilingOn{false};
std::atomic<uint32_t> gStepSampleMask{63};
StepPhaseCell gStepCells[numStepFamilies][numStepPhases];
std::atomic<uint64_t> gStepSteps[numStepFamilies];
std::atomic<uint64_t> gStepSampled[numStepFamilies];

uint64_t
stepTick()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<uint64_t>(std::chrono::steady_clock::now()
                                     .time_since_epoch()
                                     .count());
#endif
}

} // namespace detail

namespace
{

using detail::gStepCells;
using detail::gStepSampled;
using detail::gStepSteps;

/** Calibration anchor taken at enable time; ticksPerNs() divides the
 *  tick and wall deltas accumulated since, so no per-sample clock
 *  syscalls are needed and frequency is measured over the profiled
 *  region itself. */
std::mutex gAnchorMutex;
uint64_t gAnchorTick = 0;
uint64_t gAnchorNs = 0;

uint64_t
wallNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
ticksPerNs()
{
    std::lock_guard<std::mutex> lock(gAnchorMutex);
    uint64_t dt = detail::stepTick() - gAnchorTick;
    uint64_t dn = wallNs() - gAnchorNs;
    if (dn == 0 || dt == 0)
        return 1.0;
    return static_cast<double>(dt) / static_cast<double>(dn);
}

struct PhaseRow
{
    uint64_t ticks = 0;
    uint64_t samples = 0;
};

struct FamilyRows
{
    uint64_t steps = 0;
    uint64_t sampled = 0;
    PhaseRow phases[numStepPhases];
    uint64_t totalTicks = 0;
};

/** Relaxed snapshot of every accumulator. */
void
snapshotRows(FamilyRows out[numStepFamilies])
{
    for (size_t f = 0; f < numStepFamilies; ++f) {
        out[f].steps = gStepSteps[f].load(std::memory_order_relaxed);
        out[f].sampled =
            gStepSampled[f].load(std::memory_order_relaxed);
        out[f].totalTicks = 0;
        for (size_t p = 0; p < numStepPhases; ++p) {
            out[f].phases[p].ticks =
                gStepCells[f][p].ticks.load(std::memory_order_relaxed);
            out[f].phases[p].samples =
                gStepCells[f][p].samples.load(
                    std::memory_order_relaxed);
            out[f].totalTicks += out[f].phases[p].ticks;
        }
    }
}

} // namespace

const char *
stepPhaseName(StepPhase phase)
{
    static const char *names[] = {"fetch",  "dispatch", "issue",
                                  "mem",    "branch",   "retire"};
    static_assert(sizeof(names) / sizeof(names[0]) == numStepPhases,
                  "step phase name table out of sync");
    size_t idx = static_cast<size_t>(phase);
    RV_ASSERT(idx < numStepPhases, "stepPhaseName: bad phase %zu", idx);
    return names[idx];
}

const char *
stepFamilyName(unsigned family)
{
    static const char *names[] = {"inorder", "ooo", "interval"};
    static_assert(sizeof(names) / sizeof(names[0]) == numStepFamilies,
                  "step family name table out of sync");
    RV_ASSERT(family < numStepFamilies,
              "stepFamilyName: bad family %u", family);
    return names[family];
}

void
setStepProfiling(bool on, unsigned sample_shift)
{
    if (!on) {
        detail::gStepProfilingOn.store(false,
                                       std::memory_order_relaxed);
        return;
    }
    RV_ASSERT(sample_shift < 31,
              "setStepProfiling: shift %u too large", sample_shift);
    for (size_t f = 0; f < numStepFamilies; ++f) {
        gStepSteps[f].store(0, std::memory_order_relaxed);
        gStepSampled[f].store(0, std::memory_order_relaxed);
        for (size_t p = 0; p < numStepPhases; ++p) {
            gStepCells[f][p].ticks.store(0,
                                         std::memory_order_relaxed);
            gStepCells[f][p].samples.store(
                0, std::memory_order_relaxed);
        }
    }
    detail::gStepSampleMask.store((1u << sample_shift) - 1,
                                  std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(gAnchorMutex);
        gAnchorTick = detail::stepTick();
        gAnchorNs = wallNs();
    }
    detail::gStepProfilingOn.store(true, std::memory_order_relaxed);
}

std::string
stepProfileReport()
{
    FamilyRows rows[numStepFamilies];
    snapshotRows(rows);
    double tpns = ticksPerNs();
    uint32_t mask =
        detail::gStepSampleMask.load(std::memory_order_relaxed);

    char line[160];
    std::string out;
    bool any = false;
    for (size_t f = 0; f < numStepFamilies; ++f) {
        const FamilyRows &r = rows[f];
        if (r.sampled == 0)
            continue;
        if (!any) {
            snprintf(line, sizeof(line),
                     "step profile (1 in %u instructions sampled):\n"
                     "  %-9s %-9s %9s %7s\n",
                     mask + 1, "family", "phase", "ns/inst", "share");
            out += line;
            any = true;
        }
        double denom = static_cast<double>(r.sampled) * tpns;
        for (size_t p = 0; p < numStepPhases; ++p) {
            if (r.phases[p].samples == 0)
                continue;
            double ns = static_cast<double>(r.phases[p].ticks) / denom;
            double share = r.totalTicks
                ? 100.0 * static_cast<double>(r.phases[p].ticks)
                    / static_cast<double>(r.totalTicks)
                : 0.0;
            snprintf(line, sizeof(line),
                     "  %-9s %-9s %9.2f %6.1f%%\n",
                     stepFamilyName(static_cast<unsigned>(f)),
                     stepPhaseName(static_cast<StepPhase>(p)), ns,
                     share);
            out += line;
        }
        snprintf(line, sizeof(line),
                 "  %-9s %-9s %9.2f  (%llu steps, %llu sampled)\n",
                 stepFamilyName(static_cast<unsigned>(f)), "total",
                 static_cast<double>(r.totalTicks) / denom,
                 static_cast<unsigned long long>(r.steps),
                 static_cast<unsigned long long>(r.sampled));
        out += line;
    }
    return out;
}

std::string
stepProfileJson()
{
    FamilyRows rows[numStepFamilies];
    snapshotRows(rows);
    double tpns = ticksPerNs();
    uint32_t mask =
        detail::gStepSampleMask.load(std::memory_order_relaxed);

    char buf[96];
    std::string out = "{";
    snprintf(buf, sizeof(buf), "\"sample_interval\": %u", mask + 1);
    out += buf;
    for (size_t f = 0; f < numStepFamilies; ++f) {
        const FamilyRows &r = rows[f];
        if (r.sampled == 0)
            continue;
        double denom = static_cast<double>(r.sampled) * tpns;
        out += ", \"";
        out += stepFamilyName(static_cast<unsigned>(f));
        out += "\": {";
        snprintf(buf, sizeof(buf),
                 "\"steps\": %llu, \"sampled\": %llu",
                 static_cast<unsigned long long>(r.steps),
                 static_cast<unsigned long long>(r.sampled));
        out += buf;
        for (size_t p = 0; p < numStepPhases; ++p) {
            if (r.phases[p].samples == 0)
                continue;
            snprintf(buf, sizeof(buf), ", \"%s_ns\": %.3f",
                     stepPhaseName(static_cast<StepPhase>(p)),
                     static_cast<double>(r.phases[p].ticks) / denom);
            out += buf;
        }
        snprintf(buf, sizeof(buf), ", \"total_ns\": %.3f}",
                 static_cast<double>(r.totalTicks) / denom);
        out += buf;
    }
    out += "}";
    return out;
}

} // namespace raceval::obs
