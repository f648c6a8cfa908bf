/**
 * @file
 * Sharded, thread-safe cache of evaluation results, keyed by content
 * fingerprints of (model, instance).
 *
 * The racing loop and the perturbation sweeps re-evaluate
 * near-identical configurations constantly (elites re-race every
 * iteration, Figs. 7/8 probe one step around the optimum); the cache
 * turns every repeat into a lookup. A saved cache file, mapped back
 * read-only by MappedEvalFile, lets repeated runs start warm.
 */

#ifndef RACEVAL_ENGINE_EVAL_CACHE_HH
#define RACEVAL_ENGINE_EVAL_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fingerprint.hh"

namespace raceval::engine
{

/** Cache key: content fingerprint of the model side plus instance id. */
struct EvalKey
{
    uint64_t model = 0;    //!< configuration/model fingerprint (salted)
    uint64_t instance = 0; //!< benchmark instance id

    bool operator==(const EvalKey &) const = default;
};

/** What one evaluation produced. */
struct EvalValue
{
    double cost = 0.0;   //!< the objective (cost-function output)
    double simCpi = 0.0; //!< simulated CPI (for error reports)
};

/**
 * One record of a persisted cache file. The v3 format sorts records
 * ascending by (model, instance), which is what lets MappedEvalFile
 * binary-search the file in place instead of loading it onto the heap.
 * Fixed little-endian layout on every target we build for; the cache
 * file is a warm-start hint, not an archive.
 */
struct EvalFileRecord
{
    uint64_t model;
    uint64_t instance;
    double cost;
    double simCpi;
};

static_assert(sizeof(EvalFileRecord) == 32,
              "EvalFileRecord layout is part of the cache file format");

/** Aggregate cache counters. */
struct EvalCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t entries = 0; //!< current resident entries

    /** @return hits / (hits + misses), 0 when empty. */
    double
    hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits)
            / static_cast<double>(total) : 0.0;
    }
};

/**
 * The sharded result cache.
 *
 * Shard count is fixed at construction; keys map to shards by mixed
 * fingerprint, so concurrent workers contend only when they touch the
 * same shard. Entries are never evicted.
 */
class EvalCache
{
  public:
    /** @param num_shards lock shards (rounded up to at least 1). */
    explicit EvalCache(size_t num_shards = 8);

    /** Look up a key; counts a hit or a miss. */
    bool lookup(const EvalKey &key, EvalValue &out);

    /** @return true when present (no counter side effects). */
    bool contains(const EvalKey &key) const;

    /** Insert (first write wins; re-inserts of a present key are
     *  no-ops, keeping deterministic first-result semantics). */
    void insert(const EvalKey &key, const EvalValue &value);

    /** @return a copy of every (key, value) pair. */
    std::vector<std::pair<EvalKey, EvalValue>> entries() const;

    EvalCacheStats stats() const;

    /**
     * Persist every entry to a binary file.
     *
     * The cache file is a warm-start hint, not an archive: an
     * unwritable path warns and writes nothing rather than killing a
     * finished run. The file is written to `path + ".tmp"` and renamed
     * over @p path, so a live MappedEvalFile of the old file keeps
     * reading the old contents instead of faulting on a truncated one.
     *
     * @param digest caller-provided compatibility stamp (the engine
     *        digests its cache format); MappedEvalFile::open() refuses
     *        files whose digest does not match.
     * @return entries written (0 on I/O failure).
     */
    size_t save(const std::string &path, uint64_t digest = 0) const;

  private:
    struct KeyHash
    {
        size_t
        operator()(const EvalKey &key) const
        {
            return static_cast<size_t>(
                Fingerprinter::mix64(key.model ^ (key.instance
                    * 0x9e3779b97f4a7c15ull)));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<EvalKey, EvalValue, KeyHash> map;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
    };

    Shard &shardFor(const EvalKey &key);
    const Shard &shardFor(const EvalKey &key) const;

    std::vector<std::unique_ptr<Shard>> shards;
};

/**
 * A persisted v3 cache file mapped read-only.
 *
 * The file is mmap'd and binary-searched in place: nothing is copied
 * onto the heap, pages fault in on demand, and any number of engines
 * (threads or processes -- a whole campaign fleet) can share one
 * physical copy of the page cache. Lookups are const and lock-free,
 * so concurrent readers need no synchronization.
 *
 * Only the v3 (sorted) format can be mapped; v2 files are refused
 * with a clear error since their records are in hash order and cannot
 * be searched in place. Re-save with this version to upgrade.
 */
class MappedEvalFile
{
  public:
    /**
     * Map a cache file.
     *
     * @param path the file (must be v3 format).
     * @param digest compatibility stamp, as for EvalCache::save().
     * @param[out] error when given, filled with the failure reason.
     * @return the mapping, or null on any failure (missing file, v2 or
     *         foreign format, digest mismatch, truncation). A mapping
     *         never reaches past the end of the file, whatever its
     *         header claims.
     */
    static std::shared_ptr<const MappedEvalFile>
    open(const std::string &path, uint64_t digest = 0,
         std::string *error = nullptr);

    ~MappedEvalFile();
    MappedEvalFile(const MappedEvalFile &) = delete;
    MappedEvalFile &operator=(const MappedEvalFile &) = delete;

    /** Binary-search a key; thread-safe (no mutation, no locks). */
    bool lookup(const EvalKey &key, EvalValue &out) const;

    /** @return record count. */
    size_t size() const { return count; }

    /** @return record i in (model, instance) order. */
    const EvalFileRecord &record(size_t i) const { return records[i]; }

  private:
    MappedEvalFile() = default;

    void *base = nullptr;   //!< whole-file mapping
    size_t mappedBytes = 0;
    const EvalFileRecord *records = nullptr;
    size_t count = 0;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_EVAL_CACHE_HH
