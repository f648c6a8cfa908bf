/**
 * @file
 * Unit tests for the telemetry layer: span tracing (ring buffers,
 * Chrome trace rendering, determinism, the engine's per-evaluation
 * spans), the shared JsonWriter and the pluggable log sink.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "core/timing_model.hh"
#include "core/params.hh"
#include "engine/engine.hh"
#include "obs/trace.hh"
#include "tuner/race.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"

using namespace raceval;

namespace
{

/** RAII session guard: every tracing test leaves the global session
 *  closed even when an assertion fails mid-test. */
struct TraceSession
{
    explicit TraceSession(const char *path_) : path(path_)
    {
        obs::startTracing(path);
    }
    ~TraceSession()
    {
        obs::stopTracing();
        std::remove(path);
    }
    const char *path;
};

/** @return occurrences of events named @p name in a rendered trace. */
size_t
countSpans(const std::string &json, const char *name)
{
    std::string needle = std::string("\"name\": \"") + name + "\"";
    size_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriter, EscapesMetacharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteIsNull)
{
    double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(jsonDouble(v)), v);
    EXPECT_EQ(jsonDouble(1.0 / 0.0), "null");
    EXPECT_EQ(jsonDouble(0.0 / 0.0), "null");
}

TEST(JsonWriter, CompactObjectShape)
{
    JsonWriter w;
    w.beginObject()
        .field("a", uint64_t{1})
        .field("b", "x")
        .beginArray("c")
        .value(uint64_t{2})
        .value(uint64_t{3})
        .endArray()
        .endObject();
    EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": \"x\", \"c\": [2, 3]}");
}

TEST(JsonWriter, PrettyModeIndents)
{
    JsonWriter w(/*pretty=*/true);
    w.beginObject().field("a", uint64_t{1}).endObject();
    EXPECT_EQ(w.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, RawFieldSplicesNestedDocument)
{
    JsonWriter inner;
    inner.beginObject().field("x", uint64_t{7}).endObject();
    JsonWriter outer;
    outer.beginObject().rawField("in", inner.str()).endObject();
    EXPECT_EQ(outer.str(), "{\"in\": {\"x\": 7}}");
}

// ----------------------------------------------------------------- Spans

TEST(Trace, DisabledSpansDoZeroWork)
{
    ASSERT_FALSE(obs::tracingActive());
    EXPECT_FALSE(obs::tracingEnabled());
    {
        RV_SPAN("test.disabled");
        RV_INSTANT("test.disabled_instant");
    }
    EXPECT_EQ(obs::tracingEventCount(), 0u);
}

TEST(Trace, NestedSpansRenderWellFormedChromeTrace)
{
    TraceSession session("test_obs_trace.json");
    {
        RV_SPAN("test.outer", 1);
        {
            RV_SPAN("test.inner", 2);
        }
        RV_INSTANT("test.mark", 3);
    }
    std::string json = obs::traceEventsJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"test.mark\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(obs::tracingEventCount(), 3u);
}

TEST(Trace, StopWritesTheFileAndDisablesRecording)
{
    const char *path = "test_obs_stop.json";
    obs::startTracing(path);
    {
        RV_SPAN("test.stopped");
    }
    EXPECT_EQ(obs::stopTracing(), 1u);
    EXPECT_FALSE(obs::tracingActive());
    std::FILE *file = std::fopen(path, "r");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
    std::remove(path);
    // Rings keep the closed session's events; what matters is that no
    // NEW event lands after stop.
    size_t after_stop = obs::tracingEventCount();
    {
        RV_SPAN("test.after_stop");
    }
    EXPECT_EQ(obs::tracingEventCount(), after_stop);
}

TEST(Trace, PauseSuppressesRecording)
{
    TraceSession session("test_obs_pause.json");
    obs::setTracingPaused(true);
    EXPECT_FALSE(obs::tracingEnabled());
    {
        RV_SPAN("test.paused");
    }
    obs::setTracingPaused(false);
    EXPECT_TRUE(obs::tracingEnabled());
    {
        RV_SPAN("test.resumed");
    }
    std::string json = obs::traceEventsJson();
    EXPECT_EQ(json.find("\"test.paused\""), std::string::npos);
    EXPECT_NE(json.find("\"test.resumed\""), std::string::npos);
}

TEST(Trace, RingOverflowDropsOldestAndCounts)
{
    // Capacity only applies to rings created after the call, and this
    // thread's ring already exists -- flood from a fresh thread.
    obs::setTraceRingCapacity(16);
    {
        TraceSession session("test_obs_ring.json");
        size_t before = obs::tracingEventCount();
        std::thread flooder([] {
            for (int i = 0; i < 40; ++i)
                RV_INSTANT("test.flood");
        });
        flooder.join();
        EXPECT_EQ(obs::tracingEventCount() - before, 16u);
        EXPECT_EQ(obs::tracingDropped(), 24u);
    }
    // Restore the default for later rings.
    obs::setTraceRingCapacity(size_t{1} << 15);
}

// ---------------------------------------------------------- Determinism

namespace
{

/** A deterministic synthetic racing task (no engine, no simulation):
 *  any telemetry influence on the trajectory would flip the result. */
tuner::RaceResult
syntheticRace()
{
    tuner::ParameterSpace space;
    space.addOrdinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addOrdinal("b", {1, 2, 3, 4});
    tuner::RacerOptions opts;
    opts.maxExperiments = 400;
    opts.seed = 99;
    tuner::SimpleCostEvaluator evaluator(
        [](const tuner::Configuration &config, size_t instance) {
            double x = static_cast<double>(config[0]) - 3.0;
            double y = static_cast<double>(config[1]) - 1.0;
            return x * x + y * y
                + 0.01 * static_cast<double>(instance);
        });
    tuner::IteratedRacer racer(space, evaluator, /*num_instances=*/4,
                               opts);
    return racer.run();
}

} // namespace

TEST(Trace, RacingIsBitIdenticalWithTracingEnabled)
{
    tuner::RaceResult off = syntheticRace();
    tuner::RaceResult on;
    {
        TraceSession session("test_obs_identity.json");
        on = syntheticRace();
        // The race must actually have recorded spans...
        EXPECT_GT(obs::tracingEventCount(), 0u);
    }
    // ...without perturbing the trajectory one bit.
    EXPECT_EQ(off.best, on.best);
    EXPECT_EQ(off.bestMeanCost, on.bestMeanCost);
    EXPECT_EQ(off.bestCosts, on.bestCosts);
    EXPECT_EQ(off.experimentsUsed, on.experimentsUsed);
    EXPECT_EQ(off.iterations, on.iterations);
}

TEST(Trace, PackedReplayRecordsOnePassSpan)
{
    const ubench::UbenchInfo *info = ubench::find("CCh");
    ASSERT_NE(info, nullptr);
    isa::Program prog = info->builder(6007, true);
    vm::FunctionalCore live(prog);
    vm::PackedTrace trace = vm::PackedTrace::build(prog, live);

    std::string json;
    {
        TraceSession session("test_obs_replay.json");
        core::makeTimingModel(core::ModelFamily::InOrder,
                              core::publicInfoA53())
            ->run(trace);
        json = obs::traceEventsJson();
    }
    // A packed replay is one pass of the replay loop, announced as one
    // span.
    size_t first = json.find("\"replay.pass\"");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(json.find("\"replay.pass\"", first + 1), std::string::npos);
}

TEST(Trace, EngineBatchRecordsOneEvalSpanPerFreshEval)
{
    // The engine.eval / replay.pass spans are the only record of
    // per-evaluation latency: one of each per fresh slot, none for a
    // duplicate ticket or a cache hit, and one engine.batch per wave.
    const ubench::UbenchInfo *info = ubench::find("MC");
    ASSERT_NE(info, nullptr);
    engine::EvalEngine eng(core::ModelFamily::InOrder,
                           engine::EngineOptions{2});
    size_t id = eng.addInstance(info->builder(4000, true));

    const unsigned fresh = 3;
    std::vector<core::CoreParams> models(fresh + 1,
                                         core::publicInfoA53());
    for (unsigned i = 0; i <= fresh; ++i)
        models[i].mispredictPenalty = 4 + i;
    // Recorded and cached before the session: a cache hit below.
    eng.evaluateModel(models[fresh], id);

    std::string json;
    {
        TraceSession session("test_obs_engine.json");
        engine::BatchEvaluator batch(eng);
        for (unsigned i = 0; i < fresh; ++i)
            batch.submitModel(models[i], id);
        batch.submitModel(models[0], id); // duplicate ticket
        batch.submitModel(models[1], id); // duplicate ticket
        batch.submitModel(models[fresh], id); // cache hit
        EXPECT_EQ(batch.submitted(), fresh + 3);
        batch.collect();
        json = obs::traceEventsJson();
    }
    EXPECT_EQ(eng.stats().evaluations, fresh + 1);
    EXPECT_EQ(countSpans(json, "engine.eval"), fresh);
    EXPECT_EQ(countSpans(json, "replay.pass"), fresh);
    EXPECT_EQ(countSpans(json, "engine.batch"), 1u);
}

// ------------------------------------------------------------------- Log

TEST(Log, WarnAndInformPrintToStderrUnlessQuiet)
{
    bool was_quiet = quiet();
    setQuiet(false);
    ::testing::internal::CaptureStderr();
    warn("w%d", 1);
    inform("i%d", 2);
    setQuiet(true);
    warn("suppressed");
    inform("suppressed");
    std::string out = ::testing::internal::GetCapturedStderr();
    setQuiet(was_quiet);
    EXPECT_EQ(out, "warn: w1\ninfo: i2\n");
}
