#include "engine/eval_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"

namespace raceval::engine
{

namespace
{

/** On-disk header: magic + digest + entry count. Version 3 sorts the
 *  records by (model, instance) so the file can be binary-searched in
 *  place by MappedEvalFile; v2 stored them in hash order. */
const char cacheMagic[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '3'};
const char cacheMagicV2[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '2'};

constexpr size_t headerBytes =
    sizeof(cacheMagic) + sizeof(uint64_t) + sizeof(uint64_t);

/** The sort/search order of v3 records. */
bool
recordLess(const EvalFileRecord &a, const EvalFileRecord &b)
{
    if (a.model != b.model)
        return a.model < b.model;
    return a.instance < b.instance;
}

} // namespace

EvalCache::EvalCache(size_t num_shards)
{
    if (num_shards == 0)
        num_shards = 1;
    shards.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i)
        shards.push_back(std::make_unique<Shard>());
}

EvalCache::Shard &
EvalCache::shardFor(const EvalKey &key)
{
    KeyHash hash;
    return *shards[hash(key) % shards.size()];
}

const EvalCache::Shard &
EvalCache::shardFor(const EvalKey &key) const
{
    KeyHash hash;
    return *shards[hash(key) % shards.size()];
}

bool
EvalCache::lookup(const EvalKey &key, EvalValue &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        ++shard.misses;
        return false;
    }
    ++shard.hits;
    out = it->second;
    return true;
}

bool
EvalCache::contains(const EvalKey &key) const
{
    const Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.map.count(key) != 0;
}

void
EvalCache::insert(const EvalKey &key, const EvalValue &value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.emplace(key, value).second)
        ++shard.insertions;
}

std::vector<std::pair<EvalKey, EvalValue>>
EvalCache::entries() const
{
    std::vector<std::pair<EvalKey, EvalValue>> out;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.insert(out.end(), shard->map.begin(), shard->map.end());
    }
    return out;
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats out;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.insertions += shard->insertions;
        out.entries += shard->map.size();
    }
    return out;
}

size_t
EvalCache::save(const std::string &path, uint64_t digest) const
{
    std::vector<EvalFileRecord> records;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[key, value] : shard->map) {
            records.push_back(EvalFileRecord{key.model, key.instance,
                                             value.cost, value.simCpi});
        }
    }
    // v3 contract: records sorted by (model, instance) so readers can
    // mmap the file and binary-search it in place.
    std::sort(records.begin(), records.end(), recordLess);

    // Temp file + rename: truncating the file in place would pull the
    // pages out from under a live mapping of it (SIGBUS on its next
    // lookup).
    std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        warn("eval cache: cannot open '%s' for writing, not saving",
             tmp.c_str());
        return 0;
    }
    uint64_t count = records.size();
    bool ok = std::fwrite(cacheMagic, 1, sizeof(cacheMagic), file)
            == sizeof(cacheMagic)
        && std::fwrite(&digest, sizeof(digest), 1, file) == 1
        && std::fwrite(&count, sizeof(count), 1, file) == 1
        && (records.empty()
            || std::fwrite(records.data(), sizeof(EvalFileRecord),
                           records.size(), file) == records.size());
    ok = (std::fclose(file) == 0) && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("eval cache: failed to write '%s'", path.c_str());
        std::remove(tmp.c_str());
        return 0;
    }
    return records.size();
}

std::shared_ptr<const MappedEvalFile>
MappedEvalFile::open(const std::string &path, uint64_t digest,
                     std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::shared_ptr<const MappedEvalFile>();
    };

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open '" + path + "' for reading");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("cannot stat '" + path + "'");
    }
    size_t bytes = static_cast<size_t>(st.st_size);
    if (bytes < headerBytes) {
        ::close(fd);
        return fail("'" + path + "' is too short to be a cache file");
    }

    void *base =
        ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (base == MAP_FAILED)
        return fail("mmap of '" + path + "' failed");

    // std::shared_ptr cannot reach the private ctor through
    // make_shared; the mapping below is owned immediately so every
    // early return unmaps.
    std::shared_ptr<MappedEvalFile> mapped(new MappedEvalFile());
    mapped->base = base;
    mapped->mappedBytes = bytes;

    const char *head = static_cast<const char *>(base);
    if (std::memcmp(head, cacheMagic, sizeof(cacheMagic)) != 0) {
        if (std::memcmp(head, cacheMagicV2, sizeof(cacheMagicV2)) == 0)
            return fail("'" + path + "' is a v2 cache file; v2 records "
                        "are in hash order and cannot be mapped -- "
                        "re-save with this version to get the v3 "
                        "(sorted) format");
        return fail("'" + path + "' is not a cache file");
    }
    uint64_t file_digest = 0;
    uint64_t file_count = 0;
    std::memcpy(&file_digest, head + sizeof(cacheMagic),
                sizeof(file_digest));
    std::memcpy(&file_count,
                head + sizeof(cacheMagic) + sizeof(file_digest),
                sizeof(file_count));
    if (file_digest != digest)
        return fail("'" + path + "' was saved by a differently-shaped "
                    "engine (digest mismatch)");
    // Divide rather than multiply: a hostile count must not wrap the
    // bound and let lookups run past the mapping.
    if (file_count > (bytes - headerBytes) / sizeof(EvalFileRecord))
        return fail("'" + path + "' is truncated");

    mapped->records = reinterpret_cast<const EvalFileRecord *>(
        head + headerBytes);
    mapped->count = static_cast<size_t>(file_count);
    return mapped;
}

MappedEvalFile::~MappedEvalFile()
{
    if (base)
        ::munmap(base, mappedBytes);
}

bool
MappedEvalFile::lookup(const EvalKey &key, EvalValue &out) const
{
    EvalFileRecord probe{key.model, key.instance, 0.0, 0.0};
    const EvalFileRecord *it =
        std::lower_bound(records, records + count, probe, recordLess);
    if (it == records + count || it->model != key.model
        || it->instance != key.instance)
        return false;
    out = EvalValue{it->cost, it->simCpi};
    return true;
}

} // namespace raceval::engine
