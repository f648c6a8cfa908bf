/**
 * @file
 * Opt-in sampled phase-attribution profiler for the timing cores'
 * per-instruction step() bodies.
 *
 * The per-instruction cost of replay is the product the whole engine
 * sells, so shaving it has to stay profile-guided: this module
 * attributes step() time to the pipeline phases (fetch / dispatch /
 * issue / mem / branch / retire) per core family, using rdtsc-style
 * scoped timers on a 1-in-2^k sample of instructions.
 *
 * Cost discipline:
 *
 *   - disabled (the default), the replay loop (core/replay.hh)
 *     checks stepProfilingEnabled() once per *run* and instantiates the
 *     un-profiled step body, whose StepTimer<false> is an empty type
 *     the optimizer deletes -- zero per-instruction cost;
 *   - enabled, un-sampled instructions pay one relaxed fetch_add plus
 *     a thread-local decimation counter; sampled instructions pay one
 *     timestamp read per phase boundary.
 *
 * Surfacing: `--profile` on the bench drivers (bench/bench_common.hh)
 * enables it; the accumulated table is printed at exit and embedded
 * in the --json blob as its "step_profile" object.
 */

#ifndef RACEVAL_OBS_STEP_PROFILER_HH
#define RACEVAL_OBS_STEP_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace raceval::obs
{

/** Phases of one timing-model step(), in hot-path order. */
enum class StepPhase : uint8_t
{
    Fetch,    //!< front-end fetch / icache / fetch bubbles
    Dispatch, //!< window gating (ROB/IQ/LQ/SQ rings, slot advance)
    Issue,    //!< operand readiness + FU reservation/latency
    Mem,      //!< MSHR scan, cache access, store drain, forwarding
    Branch,   //!< predictor update + redirect
    Retire,   //!< retire ring, writeback, cursor advance

    NumPhases
};

/** Number of step phases. */
constexpr size_t numStepPhases = static_cast<size_t>(StepPhase::NumPhases);

/// Core-family rows of the attribution table. Plain indices rather
/// than core::ModelFamily so obs stays free of core dependencies.
/// @{
constexpr unsigned stepFamilyInOrder = 0;
constexpr unsigned stepFamilyOoo = 1;
constexpr unsigned stepFamilyInterval = 2;
constexpr size_t numStepFamilies = 3;
/// @}

/** @return phase name, e.g. "issue". */
const char *stepPhaseName(StepPhase phase);

/** @return family row name, e.g. "ooo". */
const char *stepFamilyName(unsigned family);

namespace detail
{

struct StepPhaseCell
{
    std::atomic<uint64_t> ticks{0};
    std::atomic<uint64_t> samples{0};
};

extern std::atomic<bool> gStepProfilingOn;
extern std::atomic<uint32_t> gStepSampleMask;
extern StepPhaseCell gStepCells[numStepFamilies][numStepPhases];
/** All steps executed by profiled replay loops (sampled or not). */
extern std::atomic<uint64_t> gStepSteps[numStepFamilies];
/** Steps that actually carried timers. */
extern std::atomic<uint64_t> gStepSampled[numStepFamilies];

/** @return a monotonic cycle-counter timestamp (rdtsc / cntvct_el0;
 *  steady_clock fallback). Units are calibrated against wall time at
 *  report time, never on the hot path. */
uint64_t stepTick();

/** Thread-local 1-in-(mask+1) decimation. */
inline bool
stepSampleThisStep()
{
    thread_local uint32_t ctr = 0;
    return (++ctr & gStepSampleMask.load(std::memory_order_relaxed))
        == 0;
}

} // namespace detail

/** @return true when step profiling is on. The replay loop keys
 *  its step-body instantiation off this once per run. */
inline bool
stepProfilingEnabled()
{
    return detail::gStepProfilingOn.load(std::memory_order_relaxed);
}

/**
 * Enable / disable step profiling.
 *
 * Enabling zeroes the accumulators and records a calibration anchor
 * for tick-to-nanosecond conversion; disabling stops accumulation
 * (accumulated data stays readable until the next enable).
 *
 * @param on new state.
 * @param sample_shift sample 1 in 2^sample_shift instructions.
 */
void setStepProfiling(bool on, unsigned sample_shift = 6);

/** Human-readable per-family x per-phase cost table; empty string
 *  when nothing was sampled. */
std::string stepProfileReport();

/** Compact JSON object of the same data (embedded in --json blobs). */
std::string stepProfileJson();

/**
 * Scoped phase-boundary timer over one step(). phase(p) closes the
 * currently open phase and opens p; the destructor closes the last
 * one. The inactive specialization is an empty no-op so the
 * un-profiled step instantiation pays nothing for the markers.
 */
template <bool Active>
class StepTimer
{
  public:
    explicit StepTimer(unsigned family) { (void)family; }
    void phase(StepPhase p) { (void)p; }
};

template <>
class StepTimer<true>
{
  public:
    explicit StepTimer(unsigned family)
        : fam(family), sampled(detail::stepSampleThisStep())
    {
        detail::gStepSteps[fam].fetch_add(1,
                                          std::memory_order_relaxed);
        if (sampled)
            last = detail::stepTick();
    }

    void
    phase(StepPhase p)
    {
        if (!sampled)
            return;
        uint64_t now = detail::stepTick();
        flush(now);
        cur = static_cast<int>(p);
        last = now;
    }

    ~StepTimer()
    {
        if (!sampled)
            return;
        flush(detail::stepTick());
        detail::gStepSampled[fam].fetch_add(
            1, std::memory_order_relaxed);
    }

    StepTimer(const StepTimer &) = delete;
    StepTimer &operator=(const StepTimer &) = delete;

  private:
    void
    flush(uint64_t now)
    {
        if (cur < 0)
            return;
        detail::StepPhaseCell &cell = detail::gStepCells[fam][cur];
        cell.ticks.fetch_add(now - last, std::memory_order_relaxed);
        cell.samples.fetch_add(1, std::memory_order_relaxed);
    }

    unsigned fam;
    bool sampled;
    int cur = -1;
    uint64_t last = 0;
};

} // namespace raceval::obs

#endif // RACEVAL_OBS_STEP_PROFILER_HH
