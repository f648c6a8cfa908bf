/** @file Packed-replay determinism tests: a core rerun on one trace
 *  matches a fresh core for every timing family, packed replay matches
 *  the generic TraceSource run, replay of seeded raced configurations
 *  matches recorded CoreStats digests, and the v3
 *  (sorted, mmap-able) EvalCache file format and its mapper under
 *  hostile input. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "cache/params.hh"
#include "common/rng.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"
#include "core/timing_model.hh"
#include "engine/engine.hh"
#include "engine/eval_cache.hh"
#include "engine/trace_bank.hh"
#include "isa/assembler.hh"
#include "scenario/scenario.hh"
#include "ubench/ubench.hh"
#include "validate/sniper_space.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"
#include "workload/firmware.hh"

using namespace raceval;
using core::ModelFamily;

namespace
{

isa::Program
smallProgram(const char *name, uint64_t insts = 20000)
{
    const ubench::UbenchInfo *info = ubench::find(name);
    EXPECT_NE(info, nullptr);
    return info->builder(insts, true);
}

vm::PackedTrace
packProgram(const isa::Program &prog)
{
    vm::FunctionalCore live(prog);
    return vm::PackedTrace::build(prog, live);
}

/** Require every counter of two runs to match exactly. */
void
expectBitIdentical(const core::CoreStats &a, const core::CoreStats &b,
                   const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.branch.branches, b.branch.branches) << what;
    EXPECT_EQ(a.branch.mispredicts, b.branch.mispredicts) << what;
    EXPECT_EQ(a.branch.directionMispredicts,
              b.branch.directionMispredicts) << what;
    EXPECT_EQ(a.branch.targetMispredicts, b.branch.targetMispredicts)
        << what;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << what;
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
}

const ModelFamily allFamilies[] = {ModelFamily::InOrder,
                                   ModelFamily::Ooo,
                                   ModelFamily::Interval};

/**
 * Run @p trace packed and then live on one core; both runs must equal
 * a fresh core's. Catches any per-run state a family's reset leaves
 * behind (step_cost reuses one model across its reps and relies on it).
 */
template <class Model>
void
rerunCheck(const core::CoreParams &params, const isa::Program &prog,
           const vm::PackedTrace &trace, const std::string &what)
{
    core::CoreStats want = Model(params).run(trace);
    Model reused(params);
    expectBitIdentical(want, reused.run(trace), what + " packed");
    vm::FunctionalCore live(prog);
    expectBitIdentical(want, reused.run(live), what + " live rerun");
}

} // namespace

// ------------------------------------------------------------- reruns

// Branch-heavy and memory-striding ubenchs at a prime length: the
// predictor, prefetcher and cache state a run leaves behind must not
// reach the next run.
TEST(PackedReplay, RerunOnOneCoreMatchesFreshCore)
{
    core::CoreParams params = core::publicInfoA53();
    const char *benches[] = {"CCh", "CRd", "MC", "MCS"};
    for (const char *name : benches) {
        const ubench::UbenchInfo *info = ubench::find(name);
        if (!info)
            continue; // suite membership varies; cover what exists
        isa::Program prog = info->builder(9973, true);
        vm::PackedTrace trace = packProgram(prog);
        std::string what(name);
        rerunCheck<core::InOrderCore>(params, prog, trace,
                                      what + "/inorder");
        rerunCheck<core::OooCore>(params, prog, trace, what + "/ooo");
        rerunCheck<core::IntervalCore>(params, prog, trace,
                                       what + "/interval");
    }
}

// The packed path must agree with the generic TraceSource run over the
// same recording (the duck-typed streams share one loop).
TEST(PackedReplay, PackedMatchesSourceRun)
{
    core::CoreParams params = core::publicInfoA53();
    isa::Program prog = smallProgram("MC");
    vm::PackedTrace trace = packProgram(prog);
    for (ModelFamily family : allFamilies) {
        vm::FunctionalCore live(prog);
        core::CoreStats from_source =
            core::makeTimingModel(family, params)->run(live);
        expectBitIdentical(from_source,
                           core::makeTimingModel(family, params)->run(trace),
                           core::modelFamilyName(family));
    }
}

// ------------------------------------------------------ digest lock

namespace
{

/** FNV-1a over every CoreStats counter. */
uint64_t
statsDigest(const core::CoreStats &s, uint64_t h)
{
    const uint64_t fields[] = {
        s.instructions, s.cycles, s.branch.branches,
        s.branch.mispredicts, s.branch.directionMispredicts,
        s.branch.targetMispredicts, s.l1iMisses, s.l1dAccesses,
        s.l1dMisses, s.l2Misses, s.dramReads};
    for (uint64_t v : fields) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Memory ubenches plus one firmware trace, at test-sized lengths. */
std::vector<vm::PackedTrace>
digestWorkloads()
{
    std::vector<vm::PackedTrace> traces;
    for (const char *name : {"MC", "MCS", "MD", "MIP", "ML2", "MM", "STc"})
        traces.push_back(packProgram(smallProgram(name, 24000)));
    const workload::firmware::FirmwareInfo *fw =
        workload::firmware::find("fw-list-walk");
    EXPECT_NE(fw, nullptr);
    traces.push_back(packProgram(fw->builder(40000)));
    return traces;
}

/** Recorded digest of one (target, family) row. */
struct DigestRow
{
    const char *target;
    ModelFamily family;
    uint64_t digest;
};

} // namespace

// Replay of seeded random raced configurations must reproduce the
// CoreStats recorded before the hot-path memory structures (in-flight
// table, single-scan fill, precomputed set hashing, shift line
// addressing, pool-index table) were rewritten. The configurations
// cover every prefetch kind and every replacement policy, Random with
// a victim buffer included, with timed prefetch on (every public-info
// model turns it on).
TEST(ReplayDigest, RacedConfigsMatchRecordedDigests)
{
    const DigestRow recorded[] = {
        {"cortex-a53", ModelFamily::InOrder,
         0xf7e2fe614145d00cull},
        {"cortex-a53", ModelFamily::Interval,
         0x2b4d32694fa159cdull},
        {"cortex-a72", ModelFamily::Ooo,
         0xf4d069b24514d7dcull},
        {"cortex-m-class", ModelFamily::InOrder,
         0xe4568f029fe63372ull},
        {"cortex-m-class", ModelFamily::Ooo,
         0xc9eb65125bc72380ull},
        {"cortex-m-class", ModelFamily::Interval,
         0xd7a0511a62c578ddull},
    };
    constexpr size_t configsPerRow = 8;
    std::vector<vm::PackedTrace> traces = digestWorkloads();

    std::vector<bool> pf_seen(size_t(cache::PrefetchKind::NumKinds));
    std::vector<bool> repl_seen(size_t(cache::ReplKind::NumKinds));
    bool random_with_victim = false;
    for (const DigestRow &row : recorded) {
        const scenario::TargetBoard &target =
            scenario::targetOrDie(row.target);
        ASSERT_TRUE(target.allows(row.family));
        validate::SniperParamSpace space(row.family, target.clamp);
        core::CoreParams base = target.publicInfo();
        ASSERT_TRUE(base.mem.timedPrefetch) << row.target;
        Rng rng(0x5eedull + target.fingerprintSalt
                + static_cast<uint64_t>(row.family));
        uint64_t digest = 0xcbf29ce484222325ull;
        for (size_t k = 0; k < configsPerRow; ++k) {
            tuner::Configuration config(space.space().size());
            for (size_t i = 0; i < config.size(); ++i)
                config[i] = static_cast<uint16_t>(
                    rng.nextBelow(space.space().at(i).cardinality()));
            core::CoreParams params = space.apply(config, base);
            for (const cache::CacheParams *level :
                 {&params.mem.l1d, &params.mem.l2}) {
                if (level == &params.mem.l2 && !params.mem.l2Present)
                    continue;
                pf_seen[size_t(level->prefetch)] = true;
                repl_seen[size_t(level->repl)] = true;
                random_with_victim |= level->repl == cache::ReplKind::Random
                    && level->victimEntries > 0;
            }
            auto model = core::makeTimingModel(row.family, params);
            for (const vm::PackedTrace &trace : traces)
                digest = statsDigest(model->run(trace), digest);
        }
        EXPECT_EQ(digest, row.digest)
            << row.target << "/" << core::modelFamilyName(row.family)
            << " digest 0x" << std::hex << digest;
    }
    for (size_t kind = 0; kind < pf_seen.size(); ++kind)
        EXPECT_TRUE(pf_seen[kind]) << "prefetch kind " << kind;
    for (size_t kind = 0; kind < repl_seen.size(); ++kind)
        EXPECT_TRUE(repl_seen[kind]) << "replacement kind " << kind;
    EXPECT_TRUE(random_with_victim);
}

// ---------------------------------------- classify-once dispatch identity

namespace
{

/**
 * Drive every stream type through IntervalCore::runGeneric (every
 * instruction through the generic step body, no kind-tag dispatch) and
 * require exact agreement with the tagged fast path.
 */
void
intervalFastVsGenericCheck(const core::CoreParams &params,
                           const isa::Program &prog,
                           const vm::PackedTrace &trace,
                           const std::string &what)
{
    core::CoreStats want = core::IntervalCore(params).run(trace);
    {
        vm::PackedStream s(trace);
        expectBitIdentical(want, core::IntervalCore(params).runGeneric(s),
                           what + " generic/packed");
    }
    {
        vm::FunctionalCore live(prog);
        vm::SourceStream s(live);
        expectBitIdentical(want, core::IntervalCore(params).runGeneric(s),
                           what + " generic/source");
    }
}

} // namespace

// Interval is the one family that keeps a separate plain-ALU fast
// path: it and the kind-tag dispatch must be pure optimizations,
// invisible in every counter, for every stream type. Workloads cover
// the branchy, load-dominated and store-dominated dynamic mixes so
// every stepSlow arm is exercised.
// (In-order and OoO have one step body each; PackedReplay.* covers
// their packed-vs-source and rerun identity.)
TEST(StepDispatch, IntervalFastVsGenericAllStreams)
{
    core::CoreParams params = core::publicInfoA53();
    const char *benches[] = {"CCh", "MC", "STc"};
    for (const char *name : benches) {
        const ubench::UbenchInfo *info = ubench::find(name);
        if (!info)
            continue; // suite membership varies; cover what exists
        isa::Program prog = info->builder(9973, true);
        intervalFastVsGenericCheck(params, prog, packProgram(prog), name);
    }
}

// Golden check of the precomputed 2-bit kind tag in the packed static
// rows: a hand-assembled program pins one row per kind, and every row
// of the image must agree with opKindOf(cls) (the invariant the
// classify-once dispatch rests on).
TEST(StepDispatch, StaticRowKindTagsGolden)
{
    isa::Assembler a("kinds");
    a.loadImm(10, 0x20000);
    size_t add_at = a.here();
    a.add(1, 2, 3);
    size_t ldr_at = a.here();
    a.ldr(5, 10, 0, 8);
    size_t str_at = a.here();
    a.str(5, 10, 8, 8);
    size_t beq_at = a.here();
    a.beq(1, 1, "out"); // always taken
    a.add(6, 6, 6);     // never executed; still gets a static row
    a.label("out");
    a.halt();
    isa::Program prog = a.finish();
    vm::PackedTrace trace = packProgram(prog);

    auto kindOf = [&](size_t i) {
        return static_cast<isa::OpKind>(
            (trace.staticRow(i).flags >> vm::PackedTrace::flagKindShift)
            & vm::PackedTrace::flagKindMask);
    };

    const vm::PackedStatic &add_row = trace.staticRow(add_at);
    EXPECT_EQ(kindOf(add_at), isa::OpKind::Alu);
    EXPECT_TRUE(add_row.flags & vm::PackedTrace::flagHasDst);
    EXPECT_FALSE(add_row.flags & vm::PackedTrace::flagMem);
    EXPECT_FALSE(add_row.flags & vm::PackedTrace::flagBranch);
    EXPECT_EQ(add_row.numSrcs, 2);

    const vm::PackedStatic &ldr_row = trace.staticRow(ldr_at);
    EXPECT_EQ(kindOf(ldr_at), isa::OpKind::Load);
    EXPECT_TRUE(ldr_row.flags & vm::PackedTrace::flagMem);
    EXPECT_TRUE(ldr_row.flags & vm::PackedTrace::flagHasDst);

    const vm::PackedStatic &str_row = trace.staticRow(str_at);
    EXPECT_EQ(kindOf(str_at), isa::OpKind::Store);
    EXPECT_TRUE(str_row.flags & vm::PackedTrace::flagMem);
    EXPECT_FALSE(str_row.flags & vm::PackedTrace::flagHasDst);

    const vm::PackedStatic &beq_row = trace.staticRow(beq_at);
    EXPECT_EQ(kindOf(beq_at), isa::OpKind::Branch);
    EXPECT_TRUE(beq_row.flags & vm::PackedTrace::flagBranch);
    EXPECT_FALSE(beq_row.flags & vm::PackedTrace::flagMem);

    for (size_t i = 0; i < prog.code.size(); ++i) {
        const vm::PackedStatic &row = trace.staticRow(i);
        EXPECT_EQ(kindOf(i),
                  isa::opKindOf(static_cast<isa::OpClass>(row.cls)))
            << "static row " << i;
    }
}

// ------------------------------------------------------- EvalCache v3

namespace
{

/** Deterministic synthetic cache content. */
engine::EvalCache
syntheticCache(size_t entries)
{
    engine::EvalCache cache(4);
    for (size_t i = 0; i < entries; ++i) {
        // Scramble key order so the save path genuinely has to sort.
        uint64_t model = (i * 0x9e3779b97f4a7c15ull) ^ 0x5bd1e995ull;
        engine::EvalKey key{model, i % 7};
        cache.insert(key, engine::EvalValue{0.25 * i, 1.0 + 0.5 * i});
    }
    return cache;
}

const char *testCachePath = "test_replay_cache.bin";

} // namespace

TEST(EvalCacheV3, MappedLoadEqualsHeapLoadEntryForEntry)
{
    engine::EvalCache original = syntheticCache(257);
    ASSERT_EQ(original.save(testCachePath, /*digest=*/7), 257u);

    std::string error;
    auto mapped = engine::MappedEvalFile::open(testCachePath, 7, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_EQ(mapped->size(), 257u);

    // Records are sorted by (model, instance) -- the binary-search
    // precondition.
    for (size_t i = 1; i < mapped->size(); ++i) {
        const engine::EvalFileRecord &a = mapped->record(i - 1);
        const engine::EvalFileRecord &b = mapped->record(i);
        EXPECT_TRUE(a.model < b.model
                    || (a.model == b.model && a.instance < b.instance))
            << "records out of order at " << i;
    }

    // Entry-for-entry: every entry of the saved cache answers from the
    // mapping with its exact value.
    for (const auto &[key, value] : original.entries()) {
        engine::EvalValue from_map;
        ASSERT_TRUE(mapped->lookup(key, from_map));
        EXPECT_EQ(value.cost, from_map.cost);
        EXPECT_EQ(value.simCpi, from_map.simCpi);
    }

    // Absent keys miss instead of aliasing into a neighbor.
    engine::EvalValue out;
    EXPECT_FALSE(mapped->lookup(engine::EvalKey{1, 999}, out));

    std::remove(testCachePath);
}

TEST(EvalCacheV3, RefusesV2FilesWithClearError)
{
    // Hand-write a v2 header (old magic, digest 7, zero entries).
    std::FILE *file = std::fopen(testCachePath, "wb");
    ASSERT_NE(file, nullptr);
    const char v2magic[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '2'};
    uint64_t digest = 7, count = 0;
    ASSERT_EQ(std::fwrite(v2magic, 1, 8, file), 8u);
    ASSERT_EQ(std::fwrite(&digest, 8, 1, file), 1u);
    ASSERT_EQ(std::fwrite(&count, 8, 1, file), 1u);
    std::fclose(file);

    // The mapper refuses with an error that names the v2 format.
    std::string error;
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 7, &error),
              nullptr);
    EXPECT_NE(error.find("v2"), std::string::npos) << error;

    std::remove(testCachePath);
}

TEST(EvalCacheV3, MapperRejectsDigestMismatchAndTruncation)
{
    engine::EvalCache original = syntheticCache(16);
    ASSERT_EQ(original.save(testCachePath, 7), 16u);

    std::string error;
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 8, &error),
              nullptr);
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // Truncate mid-records: refused rather than read out of bounds.
    std::FILE *file = std::fopen(testCachePath, "rb+");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
    ASSERT_EQ(truncate(testCachePath, 24 + 5 * 32 + 8), 0);
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 7, &error),
              nullptr);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    std::remove(testCachePath);
}

namespace
{

std::vector<char>
readBytes(const char *path)
{
    std::vector<char> bytes;
    std::FILE *file = std::fopen(path, "rb");
    EXPECT_NE(file, nullptr);
    if (!file)
        return bytes;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(file);
    return bytes;
}

void
writeBytes(const char *path, const std::vector<char> &bytes)
{
    std::FILE *file = std::fopen(path, "wb");
    ASSERT_NE(file, nullptr);
    // fwrite of an empty vector's (null) data() is undefined.
    if (!bytes.empty()) {
        EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                  bytes.size());
    }
    std::fclose(file);
}

/** Map a byte image as a digest-7 cache file. It must be refused with
 *  an error, or map no more records than the file holds -- and every
 *  mapped record must be readable. */
void
expectRefusedOrInBounds(const std::vector<char> &bytes,
                        const std::string &what)
{
    writeBytes(testCachePath, bytes);
    std::string error;
    auto mapped = engine::MappedEvalFile::open(testCachePath, 7, &error);
    if (!mapped) {
        EXPECT_FALSE(error.empty()) << what;
        return;
    }
    size_t fits = (bytes.size() - 24) / sizeof(engine::EvalFileRecord);
    ASSERT_LE(mapped->size(), fits) << what;
    for (size_t i = 0; i < mapped->size(); ++i) {
        const engine::EvalFileRecord &record = mapped->record(i);
        engine::EvalValue out;
        mapped->lookup(engine::EvalKey{record.model, record.instance},
                       out);
    }
}

} // namespace

// A deterministic hostile-input corpus over a small saved file: an
// oversized record count, truncation at every byte offset and every
// single-bit flip of the header. Each case ends refused or in bounds
// (the sanitizer job turns any stray read into a failure).
TEST(EvalCacheV3, MapperSurvivesHostileHeaders)
{
    engine::EvalCache original = syntheticCache(4);
    ASSERT_EQ(original.save(testCachePath, 7), 4u);
    const std::vector<char> good = readBytes(testCachePath);
    ASSERT_EQ(good.size(), 24 + 4 * sizeof(engine::EvalFileRecord));

    // 24 + 2^59 * 32 wraps to 24: the count must still be refused.
    std::vector<char> huge = good;
    uint64_t count = 1ull << 59;
    std::memcpy(huge.data() + 16, &count, sizeof(count));
    writeBytes(testCachePath, huge);
    std::string error;
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 7, &error),
              nullptr);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    for (size_t n = 0; n < good.size(); ++n) {
        expectRefusedOrInBounds(
            std::vector<char>(good.begin(), good.begin() + n),
            "truncated to " + std::to_string(n) + " bytes");
    }
    for (size_t byte = 0; byte < 24; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<char> flipped = good;
            flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
            expectRefusedOrInBounds(flipped,
                                    "header byte " + std::to_string(byte)
                                        + " bit " + std::to_string(bit));
        }
    }

    std::remove(testCachePath);
}

// Saving to the path of a live mapping must not truncate the mapped
// file under it: the old mapping keeps serving what it mapped, and a
// new mapping sees the new file.
TEST(EvalCacheV3, SaveOverLiveMappingKeepsItReadable)
{
    engine::EvalCache big = syntheticCache(1000);
    ASSERT_EQ(big.save(testCachePath, 7), 1000u);
    auto mapped = engine::MappedEvalFile::open(testCachePath, 7);
    ASSERT_NE(mapped, nullptr);

    engine::EvalCache small(1);
    small.insert(engine::EvalKey{1, 1}, engine::EvalValue{2.0, 3.0});
    ASSERT_EQ(small.save(testCachePath, 7), 1u);

    for (const auto &[key, value] : big.entries()) {
        engine::EvalValue out;
        ASSERT_TRUE(mapped->lookup(key, out));
        EXPECT_EQ(out.cost, value.cost);
        EXPECT_EQ(out.simCpi, value.simCpi);
    }
    auto fresh = engine::MappedEvalFile::open(testCachePath, 7);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->size(), 1u);
    // The temporary the save wrote aside was renamed away.
    EXPECT_NE(access((std::string(testCachePath) + ".tmp").c_str(), F_OK),
              0);

    std::remove(testCachePath);
}

TEST(EvalCacheV3, ConcurrentReadersSeeIdenticalHits)
{
    engine::EvalCache original = syntheticCache(512);
    ASSERT_EQ(original.save(testCachePath, 3), 512u);
    auto mapped = engine::MappedEvalFile::open(testCachePath, 3);
    ASSERT_NE(mapped, nullptr);
    auto expected = original.entries();

    // Two readers share one mapping (lock-free lookups) and a third
    // opens its own; all must agree on every entry.
    auto readAll = [&](const engine::MappedEvalFile &file,
                       size_t &hits) {
        for (const auto &[key, value] : expected) {
            engine::EvalValue out;
            if (file.lookup(key, out) && out.cost == value.cost
                && out.simCpi == value.simCpi)
                ++hits;
        }
    };
    size_t hits_a = 0, hits_b = 0, hits_c = 0;
    auto own = engine::MappedEvalFile::open(testCachePath, 3);
    ASSERT_NE(own, nullptr);
    std::thread a([&] { readAll(*mapped, hits_a); });
    std::thread b([&] { readAll(*mapped, hits_b); });
    std::thread c([&] { readAll(*own, hits_c); });
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(hits_a, expected.size());
    EXPECT_EQ(hits_b, expected.size());
    EXPECT_EQ(hits_c, expected.size());

    std::remove(testCachePath);
}

// ------------------------------------------------- engine warm mapping

TEST(EngineWarmFile, ServesEvaluationsWithoutSimulating)
{
    const char *path = "test_replay_warm.bin";
    core::CoreParams model = core::publicInfoA53();
    isa::Program prog = smallProgram("MC");

    engine::EvalValue fresh_inorder, fresh_ooo;
    {
        engine::EvalEngine producer(ModelFamily::InOrder);
        size_t id = producer.addInstance(prog);
        fresh_inorder =
            producer.evaluateModel(ModelFamily::InOrder, model, id);
        fresh_ooo = producer.evaluateModel(ModelFamily::Ooo, model, id);
        ASSERT_EQ(producer.saveCache(path), 2u);
    }

    engine::EvalEngine consumer(ModelFamily::InOrder);
    size_t id = consumer.addInstance(prog);
    ASSERT_EQ(consumer.mapWarmFile(path), 2u);
    ASSERT_NE(consumer.warmFile(), nullptr);

    engine::EvalValue warm_inorder =
        consumer.evaluateModel(ModelFamily::InOrder, model, id);
    engine::EvalValue warm_ooo =
        consumer.evaluateModel(ModelFamily::Ooo, model, id);

    // Family-salted keys: each family gets its own value back (no
    // cross-family aliasing through the shared file) ...
    EXPECT_EQ(warm_inorder.cost, fresh_inorder.cost);
    EXPECT_EQ(warm_inorder.simCpi, fresh_inorder.simCpi);
    EXPECT_EQ(warm_ooo.cost, fresh_ooo.cost);
    EXPECT_EQ(warm_ooo.simCpi, fresh_ooo.simCpi);
    EXPECT_NE(warm_inorder.simCpi, warm_ooo.simCpi);

    // ... and no simulation ran in the consumer.
    engine::EngineStats stats = consumer.stats();
    EXPECT_EQ(stats.warmFileHits, 2u);
    EXPECT_EQ(stats.evaluations, 0u);

    std::remove(path);
}

TEST(EngineWarmFile, MissingFileWarnsAndRacesCold)
{
    engine::EvalEngine engine(ModelFamily::InOrder);
    EXPECT_EQ(engine.mapWarmFile("no_such_warm_file.bin"), 0u);
    EXPECT_EQ(engine.warmFile(), nullptr);

    // Evaluation still works (cold).
    size_t id = engine.addInstance(smallProgram("MC", 2000));
    engine::EvalValue value =
        engine.evaluateModel(core::publicInfoA53(), id);
    EXPECT_GT(value.simCpi, 0.0);
    EXPECT_EQ(engine.stats().evaluations, 1u);
}
