#include "validate/flow.hh"

#include <cmath>

#include <unistd.h>

#include "common/log.hh"
#include "core/timing_model.hh"
#include "stats/descriptive.hh"
#include "ubench/ubench.hh"

namespace raceval::validate
{

ValidationFlow::ValidationFlow(const scenario::TargetBoard &target,
                               core::ModelFamily family,
                               FlowOptions options)
    : fam(family), opts(options), targetBoard(&target),
      sniperSpace(family, target.clamp)
{
    RV_ASSERT(tuner::SearchStrategyRegistry::instance().find(
                  opts.strategy) != nullptr,
              "flow: unknown search strategy '%s'",
              opts.strategy.c_str());
    RV_ASSERT(target.allows(fam),
              "flow: family '%s' is not whitelisted for target '%s'",
              core::modelFamilyName(fam), target.name);
    // The board is the target entry's hidden ground truth; the flow
    // only ever measures it (black-box rule).
    hwOracle = std::make_unique<HardwareOracle>(
        hw::makeMachine(target.secret(), target.outOfOrderHw));

    engine::EngineOptions engine_opts;
    engine_opts.threads = opts.threads;
    evalEngine =
        std::make_unique<engine::EvalEngine>(fam, engine_opts);
    for (const auto &info : ubench::all()) {
        ubenchInstances.push_back(
            evalEngine->addInstance(ubench::build(info)));
        // Racing instance ids and bank ids must coincide: the racer
        // hands the engine bare instance indices.
        RV_ASSERT(ubenchInstances.back() == ubenchInstances.size() - 1,
                  "ubench instance ids must be dense");
    }

    // The racing objective: CPI error vs the board, optionally with
    // the branch-misprediction-rate term of step #5. The cost tag
    // keeps the two metrics apart in the shared EvalCache; the
    // target's salt keeps *boards* apart (zero for the pre-scenario
    // A53/A72 targets, so their warm cache files stay valid).
    CostKind cost_kind = opts.costKind;
    evalEngine->setCostFn(
        [this, cost_kind](const core::CoreStats &sim, size_t instance) {
            hw::PerfCounters hwm = hwOracle->measure(
                evalEngine->traceBank().program(instance));
            double cpi_err = hwm.cpi() > 0.0
                ? std::abs(sim.cpi() - hwm.cpi()) / hwm.cpi() : 0.0;
            if (cost_kind == CostKind::Cpi)
                return cpi_err;
            // Step #5 refinement: weight in the branch misprediction
            // rate so control-flow components cannot hide behind a low
            // overall CPI error.
            double hw_rate = hwm.instructions
                ? static_cast<double>(hwm.branchMisses)
                    / static_cast<double>(hwm.instructions) : 0.0;
            double sim_rate = sim.instructions
                ? static_cast<double>(sim.branch.mispredicts)
                    / static_cast<double>(sim.instructions) : 0.0;
            double rate_err = std::abs(sim_rate - hw_rate)
                / std::max(0.005, hw_rate);
            return cpi_err + 0.5 * rate_err;
        },
        (static_cast<uint64_t>(cost_kind) + 1)
            ^ target.fingerprintSalt);

    // A missing cache file is a cold start, not worth a warning.
    if (!opts.evalCachePath.empty()
        && ::access(opts.evalCachePath.c_str(), F_OK) == 0) {
        size_t mapped = evalEngine->mapWarmFile(opts.evalCachePath);
        if (opts.verbose && mapped > 0) {
            inform("engine: mapped %zu warm evaluations from '%s'",
                   mapped, opts.evalCachePath.c_str());
        }
    }
}

ValidationFlow::~ValidationFlow()
{
    if (opts.evalCachePath.empty())
        return;
    if (!evalEngine->warmFile()
        && ::access(opts.evalCachePath.c_str(), F_OK) == 0) {
        // The file at this path did not map (foreign or v2 format,
        // digest mismatch, truncation); overwriting it would destroy
        // a file someone else may still depend on.
        warn("flow: not saving eval cache over unmappable '%s'",
             opts.evalCachePath.c_str());
        return;
    }
    evalEngine->saveCache(opts.evalCachePath);
}

double
ValidationFlow::cpiError(double sim_cpi, size_t instance)
{
    double hw_cpi =
        hwOracle->measure(evalEngine->traceBank().program(instance))
            .cpi();
    return hw_cpi > 0.0 ? std::abs(sim_cpi - hw_cpi) / hw_cpi : 0.0;
}

BenchError
ValidationFlow::evaluateOn(const core::CoreParams &model,
                           const isa::Program &program)
{
    size_t instance = evalEngine->addInstance(program);
    BenchError err;
    err.name = program.name;
    err.hwCpi = hwOracle->measure(program).cpi();
    err.simCpi = evalEngine->evaluateModel(model, instance).simCpi;
    return err;
}

double
ValidationFlow::ubenchError(const core::CoreParams &model,
                            std::vector<BenchError> *detail,
                            size_t stride)
{
    if (stride == 0)
        stride = 1;
    engine::BatchEvaluator batch(*evalEngine);
    std::vector<size_t> picked;
    std::vector<engine::BatchEvaluator::Ticket> tickets;
    for (size_t i = 0; i < ubenchInstances.size(); i += stride) {
        picked.push_back(ubenchInstances[i]);
        tickets.push_back(
            batch.submitModel(model, ubenchInstances[i]));
    }
    batch.collect();

    std::vector<double> errors;
    for (size_t k = 0; k < picked.size(); ++k) {
        const isa::Program &prog =
            evalEngine->traceBank().program(picked[k]);
        BenchError err;
        err.name = prog.name;
        err.hwCpi = hwOracle->measure(prog).cpi();
        err.simCpi = batch.simCpi(tickets[k]);
        errors.push_back(err.error());
        if (detail)
            detail->push_back(err);
    }
    return stats::mean(errors);
}

std::vector<double>
ValidationFlow::ubenchErrorBatch(
    const std::vector<core::CoreParams> &models, size_t stride)
{
    if (stride == 0)
        stride = 1;
    engine::BatchEvaluator batch(*evalEngine);
    std::vector<engine::BatchEvaluator::Ticket> tickets;
    std::vector<size_t> picked;
    for (size_t i = 0; i < ubenchInstances.size(); i += stride)
        picked.push_back(ubenchInstances[i]);
    for (const core::CoreParams &model : models) {
        for (size_t instance : picked)
            tickets.push_back(batch.submitModel(model, instance));
    }
    batch.collect();

    std::vector<double> out;
    out.reserve(models.size());
    size_t t = 0;
    for (size_t m = 0; m < models.size(); ++m) {
        std::vector<double> errors;
        errors.reserve(picked.size());
        for (size_t instance : picked)
            errors.push_back(cpiError(batch.simCpi(tickets[t++]),
                                      instance));
        out.push_back(stats::mean(errors));
    }
    return out;
}

FlowReport
ValidationFlow::run()
{
    FlowReport report;

    // Steps #1 + #3: public information and best-effort guesses.
    core::CoreParams base = targetBoard->publicInfo();

    // Step #2: lmbench-style latency probing on the board. The second
    // probe chases a working set far beyond L1; on an L2-bearing board
    // that is the L2 latency, on a flat-memory board it is the memory
    // latency itself.
    report.latencies = probeLatencies(hwOracle->board());
    base.mem.l1d.latency = report.latencies.l1d;
    if (base.mem.l2Present)
        base.mem.l2.latency = report.latencies.l2;
    else
        base.mem.dram.latency = report.latencies.l2;
    if (opts.verbose) {
        inform("step #2: probed latencies l1d=%u l2=%u",
               report.latencies.l1d, report.latencies.l2);
    }
    report.publicModel = base;
    // This first full sweep also measures every instance on the board
    // (the oracle memoizes, so racing below reads its cache).
    report.untunedUbenchAvg =
        ubenchError(base, &report.untunedUbench);

    // Step #4: search the undisclosed parameters with the configured
    // strategy (the paper's iterated racing by default). The engine
    // is the evaluator: every search step is one deduplicated batch
    // of trace replays, memoized in the EvalCache.
    raceBase = base;
    evalEngine->setModelFn(
        [this](const tuner::Configuration &config) {
            return sniperSpace.apply(config, raceBase);
        });

    tuner::RacerOptions racer_opts;
    racer_opts.maxExperiments = opts.budget;
    racer_opts.seed = opts.seed;
    racer_opts.verbose = opts.verbose;
    std::unique_ptr<tuner::SearchStrategy> strategy =
        tuner::makeSearchStrategy(opts.strategy, sniperSpace.space(),
                                  *evalEngine, ubenchInstances.size(),
                                  racer_opts);
    strategy->addInitialCandidate(sniperSpace.encode(base));
    report.race = strategy->run();

    // Step #6: the tuned model.
    report.tunedModel = sniperSpace.apply(report.race.best, base);
    report.tunedUbenchAvg =
        ubenchError(report.tunedModel, &report.tunedUbench);

    report.engineStats = evalEngine->stats();
    if (opts.verbose) {
        inform("flow: untuned avg ubench CPI error %.1f%%, "
               "tuned %.1f%% (%llu experiments)",
               100.0 * report.untunedUbenchAvg,
               100.0 * report.tunedUbenchAvg,
               static_cast<unsigned long long>(
                   report.race.experimentsUsed));
        inform("%s", report.engineStats.summary().c_str());
    }
    return report;
}

} // namespace raceval::validate
