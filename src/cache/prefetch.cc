#include "cache/prefetch.hh"

#include "common/log.hh"

namespace raceval::cache
{

void
NextLinePrefetcher::observe(uint64_t pc, uint64_t line_addr, bool miss,
                            std::vector<uint64_t> &out)
{
    (void)pc;
    if (!miss)
        return;
    for (unsigned i = 1; i <= degree; ++i)
        out.push_back(line_addr + i);
}

StridePrefetcher::StridePrefetcher(unsigned entries, unsigned degree)
    : degree(degree)
{
    RV_ASSERT(isPowerOfTwo(entries), "stride entries %u not pow2", entries);
    table.assign(entries, Entry{});
}

void
StridePrefetcher::reset()
{
    std::fill(table.begin(), table.end(), Entry{});
}

void
StridePrefetcher::observe(uint64_t pc, uint64_t line_addr, bool miss,
                          std::vector<uint64_t> &out)
{
    (void)miss; // stride training uses all accesses
    Entry &entry = table[(pc >> 2) & (table.size() - 1)];
    if (!entry.valid || entry.tag != pc) {
        entry = Entry{pc, line_addr, 0, 0, true};
        return;
    }
    int64_t delta = static_cast<int64_t>(line_addr)
        - static_cast<int64_t>(entry.lastLine);
    if (delta == entry.stride && delta != 0) {
        if (entry.confidence < 3)
            ++entry.confidence;
    } else {
        entry.stride = delta;
        entry.confidence = entry.confidence ? entry.confidence - 1 : 0;
    }
    entry.lastLine = line_addr;
    if (entry.confidence >= 2 && entry.stride != 0) {
        for (unsigned i = 1; i <= degree; ++i) {
            out.push_back(static_cast<uint64_t>(
                static_cast<int64_t>(line_addr)
                + entry.stride * static_cast<int64_t>(i)));
        }
    }
}

GhbPrefetcher::GhbPrefetcher(unsigned ghb_entries, unsigned index_entries,
                             unsigned degree)
    : degree(degree)
{
    RV_ASSERT(isPowerOfTwo(ghb_entries), "ghb entries %u not pow2",
              ghb_entries);
    RV_ASSERT(isPowerOfTwo(index_entries), "ghb index %u not pow2",
              index_entries);
    ghb.assign(ghb_entries, GhbEntry{});
    indexTable.assign(index_entries, -1);
}

void
GhbPrefetcher::reset()
{
    std::fill(ghb.begin(), ghb.end(), GhbEntry{});
    std::fill(indexTable.begin(), indexTable.end(), -1);
    written = 0;
}

unsigned
GhbPrefetcher::history(uint64_t pc,
                       std::array<uint64_t, historyDepth> &lines) const
{
    unsigned found = 0;
    int64_t seq = indexTable[(pc >> 2) & (indexTable.size() - 1)];
    // Follow the per-pc chain, newest first, stopping when a link has
    // been overwritten by the circular buffer (seq mismatch).
    while (seq >= 0 && found < lines.size()) {
        const GhbEntry &entry =
            ghb[static_cast<uint64_t>(seq) & (ghb.size() - 1)];
        if (!entry.valid || entry.seq != static_cast<uint64_t>(seq))
            break;
        lines[found++] = entry.lineAddr;
        seq = entry.prevSeq;
    }
    return found;
}

void
GhbPrefetcher::observe(uint64_t pc, uint64_t line_addr, bool miss,
                       std::vector<uint64_t> &out)
{
    if (!miss)
        return;

    size_t index = (pc >> 2) & (indexTable.size() - 1);
    // Insert into the GHB, linking to this pc's previous miss.
    ghb[written & (ghb.size() - 1)] =
        GhbEntry{line_addr, written, indexTable[index], true};
    indexTable[index] = static_cast<int64_t>(written);
    ++written;

    // Delta correlation: use the last three misses of this pc to form
    // two deltas and project the chain forward.
    std::array<uint64_t, historyDepth> recent;
    if (history(pc, recent) < historyDepth)
        return;
    int64_t d1 = static_cast<int64_t>(recent[0])
        - static_cast<int64_t>(recent[1]);
    int64_t d2 = static_cast<int64_t>(recent[1])
        - static_cast<int64_t>(recent[2]);
    if (d1 == 0)
        return;
    // Constant-stride chain (d1 == d2) or simple alternating pattern:
    // project d1 forward either way, which matches G/DC behaviour for
    // the dominant regular patterns.
    int64_t step = (d1 == d2) ? d1 : d2;
    if (step == 0)
        return;
    uint64_t addr = line_addr;
    for (unsigned i = 0; i < degree; ++i) {
        addr = static_cast<uint64_t>(static_cast<int64_t>(addr)
                                     + (i % 2 == 0 ? d1 : step));
        out.push_back(addr);
    }
}

std::unique_ptr<Prefetcher>
makePrefetcher(const CacheParams &params)
{
    switch (params.prefetch) {
      case PrefetchKind::None:
        return nullptr;
      case PrefetchKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(params.prefetchDegree);
      case PrefetchKind::Stride:
        return std::make_unique<StridePrefetcher>(params.strideEntries,
                                                  params.prefetchDegree);
      case PrefetchKind::Ghb:
        return std::make_unique<GhbPrefetcher>(params.ghbEntries,
                                               params.ghbEntries,
                                               params.prefetchDegree);
      default:
        panic("bad prefetch kind %d", static_cast<int>(params.prefetch));
    }
}

} // namespace raceval::cache
