/**
 * @file
 * Step-cost microbench: ns/inst of the per-instruction hot path, per
 * timing-model family and per workload class, plus a frozen-baseline
 * A-B that locks the hot-path flattening in.
 *
 * Three pillars, all over the same packed traces:
 *
 *   - ns/inst of the library step (modulo-free cursors; interval also
 *     its classify-once ALU fast path), one pass being one run() of
 *     the family's replay loop, for every family x {ALU-heavy,
 *     memory, branchy} workload, interleaved min-of-N passes, each
 *     timed on this thread's CPU clock so other tenants' preemption
 *     does not land inside a pass;
 *   - an A-B against a bench-local frozen copy of the pre-flattening
 *     OoO step (per-instruction OpClass tests + `seq % ring.size()`
 *     indexing everywhere), the family with the most modulo sites.
 *     The baseline is deliberately NOT the library code: it is the
 *     reference implementation the flattening replaced, kept here so
 *     the speedup never silently evaporates into "both sides got
 *     slower";
 *   - bit-identity: the OoO step must produce exactly the baseline's
 *     CoreStats, and interval's runGeneric (every instruction through
 *     its generic body) must match its tagged fast path.
 *     In-order and OoO have one step body each, so they report one
 *     ns/inst column.
 *
 * Feeds the perf_step_guard ctest entry via --json: step_speedup
 * (geomean over workload classes of the OoO A-B, each class the median
 * of its per-rep baseline/library ratios) and step_bit_identical.
 */

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_common.hh"
#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/contention.hh"
#include "core/frontend.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"

namespace
{

using namespace raceval;
using isa::OpClass;

/** One workload class: a ubench whose dynamic mix is dominated by the
 *  step-path branch under measurement. */
struct WorkloadCase
{
    const char *key;    //!< metric key fragment
    const char *ubench; //!< registry name
    const char *what;
};

const WorkloadCase workloadCases[] = {
    {"alu", "EI", "ALU-heavy (integer execution)"},
    {"mem", "MC", "memory (pointer chase)"},
    {"branch", "CCh", "branchy (hash-pattern control)"},
};

/**
 * Frozen pre-flattening OoO step, verbatim from the last release
 * before the hot-path rework: classification by OpClass comparisons on
 * every instruction and `seq % ring.size()` (a hardware divide per
 * site, ~8 sites per store) for all scoreboard indexing. Built from
 * the same public pieces as the library core so the A-B isolates the
 * step-body shape, not the component models.
 */
class BaselineOooCore
{
  public:
    explicit BaselineOooCore(const core::CoreParams &params)
        : cparams(params), mem(params.mem), bp(params.bp),
          contention(params)
    {
        cparams.validate();
        regReady.assign(isa::numIntRegs + isa::numFpRegs, 0);
        robFreeAt.assign(cparams.robEntries, 0);
        iqFreeAt.assign(cparams.iqEntries, 0);
        lqFreeAt.assign(cparams.lqEntries, 0);
        sqFreeAt.assign(cparams.sqEntries, 0);
        retireRing.assign(cparams.commitWidth, 0);
        mshrFree.assign(cparams.mem.l1d.mshrs, 0);
        pendingStores.assign(16, PendingStore{});
    }

    core::CoreStats
    run(const vm::PackedTrace &trace)
    {
        reset();
        vm::PackedStream stream(trace);
        while (stream.next())
            step(stream);
        return finish();
    }

  private:
    core::CoreParams cparams;
    cache::MemoryHierarchy mem;
    branch::BranchUnit bp;
    core::ContentionModel contention;
    core::CoreStats runStats;
    core::FetchFrontEnd frontend;

    uint64_t dispatchCycle = 0;
    unsigned dispatchedThisCycle = 0;
    uint64_t lastRetire = 0;
    uint64_t lastDrain = 0;
    uint64_t seq = 0;
    uint64_t loadSeq = 0;
    uint64_t storeSeq = 0;

    std::vector<uint64_t> regReady;
    std::vector<uint64_t> robFreeAt;
    std::vector<uint64_t> iqFreeAt;
    std::vector<uint64_t> lqFreeAt;
    std::vector<uint64_t> sqFreeAt;
    std::vector<uint64_t> retireRing;
    std::vector<uint64_t> mshrFree;

    struct PendingStore
    {
        uint64_t addr = 0;
        unsigned size = 0;
        uint64_t drainAt = 0;
    };
    std::vector<PendingStore> pendingStores;
    size_t pendingStoreHead = 0;
    size_t pendingStoreLive = 0;
    uint64_t pendingStoreMaxDrain = 0;

    void
    reset()
    {
        mem.reset();
        bp.reset();
        contention.reset();
        frontend.reset();
        runStats = core::CoreStats{};
        dispatchCycle = 0;
        dispatchedThisCycle = 0;
        lastRetire = 0;
        lastDrain = 0;
        seq = 0;
        loadSeq = 0;
        storeSeq = 0;
        std::fill(regReady.begin(), regReady.end(), 0);
        std::fill(robFreeAt.begin(), robFreeAt.end(), 0);
        std::fill(iqFreeAt.begin(), iqFreeAt.end(), 0);
        std::fill(lqFreeAt.begin(), lqFreeAt.end(), 0);
        std::fill(sqFreeAt.begin(), sqFreeAt.end(), 0);
        std::fill(retireRing.begin(), retireRing.end(), 0);
        std::fill(mshrFree.begin(), mshrFree.end(), 0);
        std::fill(pendingStores.begin(), pendingStores.end(),
                  PendingStore{});
        pendingStoreHead = 0;
        pendingStoreLive = 0;
        pendingStoreMaxDrain = 0;
    }

    bool
    forwardedFromStore(uint64_t addr, unsigned size, uint64_t now) const
    {
        if (pendingStoreMaxDrain <= now)
            return false;
        for (size_t i = 0; i < pendingStoreLive; ++i) {
            const PendingStore &st = pendingStores[i];
            if (st.size == 0 || st.drainAt <= now)
                continue;
            if (addr >= st.addr && addr + size <= st.addr + st.size)
                return true;
        }
        return false;
    }

    void
    step(const vm::PackedStream &s)
    {
        ++runStats.instructions;
        frontend.fetch(mem, cparams, s.pc(), dispatchCycle);

        OpClass cls = s.cls();
        bool is_load = cls == OpClass::Load;
        bool is_store = cls == OpClass::Store;

        uint64_t dready = dispatchCycle > frontend.readyAt
            ? dispatchCycle : frontend.readyAt;
        uint64_t rob_free = robFreeAt[seq % robFreeAt.size()];
        if (rob_free > dready)
            dready = rob_free;
        uint64_t iq_free = iqFreeAt[seq % iqFreeAt.size()];
        if (iq_free > dready)
            dready = iq_free;
        if (is_load) {
            uint64_t lq_free = lqFreeAt[loadSeq % lqFreeAt.size()];
            if (lq_free > dready)
                dready = lq_free;
        }
        if (is_store) {
            uint64_t sq_free = sqFreeAt[storeSeq % sqFreeAt.size()];
            if (sq_free > dready)
                dready = sq_free;
        }
        if (dready > dispatchCycle) {
            dispatchCycle = dready;
            dispatchedThisCycle = 0;
        }

        uint64_t ready = dispatchCycle;
        for (unsigned i = 0; i < s.srcCount(); ++i) {
            uint64_t at = regReady[s.srcReg(i)];
            if (at > ready)
                ready = at;
        }
        uint64_t start = contention.reserve(cls, ready);
        uint64_t complete = start + contention.latencyOf(cls);

        if (is_load) {
            unsigned lat;
            if (cparams.forwarding
                && forwardedFromStore(s.memAddr(), s.memSize(), start)) {
                lat = cparams.forwardLatency;
                mem.access(s.pc(), s.memAddr(), false, false, start);
            } else {
                uint64_t access_at = start;
                size_t slot = mshrFree.size();
                if (!mem.l1d().probe(s.memAddr() / mem.lineBytes())) {
                    slot = 0;
                    for (size_t i = 1; i < mshrFree.size(); ++i) {
                        if (mshrFree[i] < mshrFree[slot])
                            slot = i;
                    }
                    if (mshrFree[slot] > access_at)
                        access_at = mshrFree[slot];
                }
                cache::AccessResult res =
                    mem.access(s.pc(), s.memAddr(), false, false,
                               access_at);
                lat = static_cast<unsigned>(access_at - start)
                    + res.latency;
                if (slot != mshrFree.size())
                    mshrFree[slot] = access_at + res.latency;
            }
            complete = start + lat;
        }

        if (s.isBranch()) {
            if (bp.predict(s.pc(), cls, s.taken(), s.nextPc())) {
                frontend.redirect(complete + cparams.mispredictPenalty);
            } else if (s.taken() && cparams.takenBranchBubble) {
                frontend.stallUntil(dispatchCycle
                                    + cparams.takenBranchBubble);
            }
        }

        uint64_t retire = complete;
        uint64_t window = retireRing[seq % retireRing.size()] + 1;
        if (window > retire)
            retire = window;
        if (lastRetire > retire)
            retire = lastRetire;
        retireRing[seq % retireRing.size()] = retire;
        lastRetire = retire;

        if (is_store) {
            cache::AccessResult res =
                mem.access(s.pc(), s.memAddr(), true, false, retire);
            uint64_t drain_start =
                retire > lastDrain ? retire : lastDrain;
            uint64_t drain_done = drain_start + res.latency;
            lastDrain = drain_done;
            sqFreeAt[storeSeq % sqFreeAt.size()] = drain_done;
            pendingStores[pendingStoreHead] =
                PendingStore{s.memAddr(), s.memSize(), drain_done};
            if (pendingStoreLive <= pendingStoreHead)
                pendingStoreLive = pendingStoreHead + 1;
            if (drain_done > pendingStoreMaxDrain)
                pendingStoreMaxDrain = drain_done;
            pendingStoreHead =
                (pendingStoreHead + 1) % pendingStores.size();
            ++storeSeq;
        }
        if (is_load) {
            lqFreeAt[loadSeq % lqFreeAt.size()] = retire;
            ++loadSeq;
        }

        if (s.hasDst())
            regReady[s.dstReg()] = complete;
        robFreeAt[seq % robFreeAt.size()] = retire;
        iqFreeAt[seq % iqFreeAt.size()] = start;
        ++seq;

        if (++dispatchedThisCycle >= cparams.dispatchWidth) {
            ++dispatchCycle;
            dispatchedThisCycle = 0;
        }
    }

    core::CoreStats
    finish()
    {
        uint64_t end =
            lastRetire > dispatchCycle ? lastRetire : dispatchCycle;
        if (lastDrain > end)
            end = lastDrain;
        runStats.cycles = end;
        runStats.branch = bp.stats();
        runStats.l1iMisses = mem.l1i().stats().misses;
        runStats.l1dAccesses = mem.l1d().stats().accesses;
        runStats.l1dMisses = mem.l1d().stats().misses;
        runStats.l2Misses = mem.l2().stats().misses;
        runStats.dramReads = mem.dram().readCount();
        return runStats;
    }
};

bool
statsEqual(const core::CoreStats &a, const core::CoreStats &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles
        && a.branch.branches == b.branch.branches
        && a.branch.mispredicts == b.branch.mispredicts
        && a.branch.directionMispredicts
            == b.branch.directionMispredicts
        && a.branch.targetMispredicts == b.branch.targetMispredicts
        && a.l1iMisses == b.l1iMisses
        && a.l1dAccesses == b.l1dAccesses && a.l1dMisses == b.l1dMisses
        && a.l2Misses == b.l2Misses && a.dramReads == b.dramReads;
}

/** @return this thread's CPU time in seconds: a pass is charged only
 *  for the time it ran, not for time other processes held the core. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Time one full pass; @return ns per instruction. */
template <class Fn>
double
timedNsPerInst(uint64_t insts, Fn &&pass)
{
    double t0 = threadCpuSeconds();
    pass();
    double t1 = threadCpuSeconds();
    return insts ? (t1 - t0) * 1e9 / static_cast<double>(insts) : 0.0;
}

core::CoreStats
runGeneric(core::IntervalCore &model, const vm::PackedTrace &trace)
{
    vm::PackedStream stream(trace);
    return model.runGeneric(stream);
}

/** Per-family, per-workload measurement row. */
struct Row
{
    double ns = 0.0;
    double genericNs = 0.0;  //!< interval only (0 elsewhere)
    double baselineNs = 0.0; //!< OoO only (0 elsewhere)
    /** OoO only: median over reps of baseline pass / library pass, the
     *  two passes of a rep run back to back. */
    double speedup = 0.0;
    bool identical = true;
};

/**
 * Measure one family over one trace: interleaved min-of-N of the
 * library step and, where they exist, interval's generic body and the
 * frozen OoO step (@p baseline), so scheduler drift hits all sides of
 * the A-B equally. The A-B speedup is the median of the per-rep
 * ratios, so one disturbed pass moves one ratio, not the result.
 */
template <class Model>
Row
measureFamily(const core::CoreParams &params,
              const vm::PackedTrace &trace, BaselineOooCore *baseline,
              int reps)
{
    constexpr bool has_generic =
        std::is_same_v<Model, core::IntervalCore>;
    Model model(params);
    uint64_t insts = trace.instCount();
    Row row;
    core::CoreStats stats, generic_stats, baseline_stats;
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep) {
        double library_ns = timedNsPerInst(
            insts, [&] { stats = model.run(trace); });
        if (rep == 0 || library_ns < row.ns)
            row.ns = library_ns;
        if constexpr (has_generic) {
            double ns = timedNsPerInst(insts, [&] {
                generic_stats = runGeneric(model, trace);
            });
            if (rep == 0 || ns < row.genericNs)
                row.genericNs = ns;
        }
        if (baseline) {
            double ns = timedNsPerInst(insts, [&] {
                baseline_stats = baseline->run(trace);
            });
            if (rep == 0 || ns < row.baselineNs)
                row.baselineNs = ns;
            if (library_ns > 0.0)
                ratios.push_back(ns / library_ns);
        }
    }
    if (!ratios.empty()) {
        auto mid = ratios.begin() + static_cast<long>(ratios.size() / 2);
        std::nth_element(ratios.begin(), mid, ratios.end());
        row.speedup = *mid;
    }
    row.identical = (!has_generic || statsEqual(stats, generic_stats))
        && (!baseline || statsEqual(stats, baseline_stats));
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace raceval;
    bench::parseDriverArgs(
        argc, argv,
        "Step-cost microbench: ns/inst of the per-instruction hot "
        "path per timing-model family and workload class, with a "
        "frozen pre-flattening OoO baseline A-B and interval's "
        "fast-vs-generic bit-identity check.");
    setQuiet(true);
    bench::header("Per-instruction step cost (ns/inst of thread CPU "
                  "time, min of N interleaved passes; speedup = median "
                  "of per-pass ratios)");

    const uint64_t insts = bench::smokeScaled<uint64_t>(1'000'000,
                                                        100'000);
    // A smoke pass is ~2 ms, so one cache-cold or disturbed pass can
    // swamp it: take the full 7 reps there too.
    const int reps = 7;

    core::CoreParams inorder_params = core::publicInfoA53();
    core::CoreParams interval_params = core::publicInfoA53();
    core::CoreParams ooo_params = core::publicInfoA72();

    std::printf("%-8s %-10s %-26s %10s %10s %10s %8s\n", "family",
                "workload", "ubench", "ns/inst", "generic", "baseline",
                "speedup");

    bool all_identical = true;
    double speedup_log_sum = 0.0;
    int speedup_count = 0;

    for (const WorkloadCase &wc : workloadCases) {
        const ubench::UbenchInfo *info = ubench::find(wc.ubench);
        if (!info) {
            std::fprintf(stderr, "step_cost: ubench '%s' missing\n",
                         wc.ubench);
            return 2;
        }
        isa::Program prog = info->builder(insts, true);
        vm::FunctionalCore live(prog);
        vm::PackedTrace trace = vm::PackedTrace::build(prog, live);

        struct FamilyRun
        {
            const char *name;
            Row row;
        };
        BaselineOooCore baseline(ooo_params);
        FamilyRun runs[] = {
            {"inorder",
             measureFamily<core::InOrderCore>(inorder_params, trace,
                                              nullptr, reps)},
            {"ooo",
             measureFamily<core::OooCore>(ooo_params, trace, &baseline,
                                          reps)},
            {"interval",
             measureFamily<core::IntervalCore>(interval_params, trace,
                                               nullptr, reps)},
        };

        for (const FamilyRun &fr : runs) {
            bool has_generic = fr.row.genericNs > 0.0;
            bool has_baseline = fr.row.baselineNs > 0.0;
            double speedup = fr.row.speedup;
            char generic_col[32] = "-", baseline_col[32] = "-",
                 speedup_col[32] = "-";
            if (has_generic)
                std::snprintf(generic_col, sizeof(generic_col), "%.2f",
                              fr.row.genericNs);
            if (has_baseline) {
                std::snprintf(baseline_col, sizeof(baseline_col),
                              "%.2f", fr.row.baselineNs);
                std::snprintf(speedup_col, sizeof(speedup_col),
                              "%.2fx", speedup);
            }
            std::printf("%-8s %-10s %-26s %9.2f %10s %10s %8s%s\n",
                        fr.name, wc.key, wc.what, fr.row.ns,
                        generic_col, baseline_col, speedup_col,
                        fr.row.identical ? "" : "  (DIVERGED)");
            all_identical = all_identical && fr.row.identical;

            std::string prefix =
                std::string("step_") + fr.name + "_" + wc.key;
            bench::jsonMetric(prefix + "_ns_per_inst", fr.row.ns);
            if (has_generic)
                bench::jsonMetric(prefix + "_generic_ns_per_inst",
                                  fr.row.genericNs);
            if (has_baseline) {
                bench::jsonMetric(prefix + "_baseline_ns_per_inst",
                                  fr.row.baselineNs);
                bench::jsonMetric(prefix + "_speedup", speedup);
                if (speedup > 0.0) {
                    speedup_log_sum += std::log(speedup);
                    ++speedup_count;
                }
            }
        }
    }

    double step_speedup = speedup_count
        ? std::exp(speedup_log_sum / speedup_count) : 0.0;
    std::printf("\nOoO A-B vs frozen pre-flattening step (geomean "
                "over workload classes): %.2fx; bit-identical: %s\n",
                step_speedup, all_identical ? "yes" : "NO (BUG)");
    bench::jsonMetric("step_speedup", step_speedup);
    bench::jsonMetric("step_bit_identical", all_identical ? 1.0 : 0.0);
    bench::jsonMetric("step_insts_per_trace",
                      static_cast<double>(insts));

    bench::writeJson(nullptr);
    return all_identical ? 0 : 1;
}
