#include "cache/cache.hh"

#include "common/log.hh"

namespace raceval::cache
{

unsigned
largestPrimeAtMost(unsigned n)
{
    RV_ASSERT(n >= 2, "no prime <= %u", n);
    for (unsigned candidate = n; candidate >= 2; --candidate) {
        bool prime = true;
        for (unsigned d = 2; d * d <= candidate; ++d) {
            if (candidate % d == 0) {
                prime = false;
                break;
            }
        }
        if (prime)
            return candidate;
    }
    return 2;
}

Cache::Cache(const CacheParams &params, uint64_t rng_seed)
    : cparams(params), rng(rng_seed)
{
    cparams.validate();
    sets = cparams.numSets();
    setBits = floorLog2(sets);
    indexablesets = cparams.hash == HashKind::Mersenne
        ? largestPrimeAtMost(sets) : sets;
    primeReciprocal = ~0ull / indexablesets + 1;
    lines.assign(static_cast<size_t>(sets) * cparams.assoc, Line{});
    stamps.assign(static_cast<size_t>(sets) * cparams.assoc, 0u);
    treeBits.assign(sets, 0u);
    victim.assign(cparams.victimEntries, Line{});
    victimStamp.assign(cparams.victimEntries, 0);
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    std::fill(stamps.begin(), stamps.end(), 0u);
    std::fill(treeBits.begin(), treeBits.end(), 0u);
    std::fill(victim.begin(), victim.end(), Line{});
    std::fill(victimStamp.begin(), victimStamp.end(), 0u);
    clock = 0;
    cstats = CacheStats{};
}

void
Cache::touchTree(unsigned set, unsigned way)
{
    // Flip tree bits along the path so they point *away* from way.
    uint32_t bits = treeBits[set];
    unsigned node = 1;
    unsigned span = cparams.assoc;
    unsigned lo = 0;
    while (span > 1) {
        unsigned half = span / 2;
        bool right = way >= lo + half;
        // bit==1 means "victim is on the left subtree next time".
        if (right)
            bits |= (1u << node);
        else
            bits &= ~(1u << node);
        node = node * 2 + (right ? 1 : 0);
        if (right)
            lo += half;
        span = right ? span - half : half;
    }
    treeBits[set] = bits;
}

unsigned
Cache::installWay(const Slot &slot)
{
    if (slot.way < cparams.assoc)
        return slot.way; // an invalid way
    unsigned set = slot.set;
    const uint32_t *set_stamps =
        &stamps[static_cast<size_t>(set) * cparams.assoc];

    switch (cparams.repl) {
      case ReplKind::LRU:
      case ReplKind::FIFO: {
        unsigned victim_way = 0;
        uint32_t oldest = set_stamps[0];
        for (unsigned way = 1; way < cparams.assoc; ++way) {
            if (set_stamps[way] < oldest) {
                oldest = set_stamps[way];
                victim_way = way;
            }
        }
        return victim_way;
      }
      case ReplKind::Random:
        return static_cast<unsigned>(rng.nextBelow(cparams.assoc));
      case ReplKind::TreePLRU: {
        uint32_t bits = treeBits[set];
        unsigned node = 1;
        unsigned span = cparams.assoc;
        unsigned lo = 0;
        while (span > 1) {
            unsigned half = span / 2;
            bool go_right = !(bits & (1u << node));
            node = node * 2 + (go_right ? 1 : 0);
            if (go_right)
                lo += half;
            span = go_right ? span - half : half;
        }
        return lo;
      }
      default:
        panic("bad repl kind %d", static_cast<int>(cparams.repl));
    }
}

unsigned
Cache::victimFind(uint64_t line_addr) const
{
    for (unsigned i = 0; i < victim.size(); ++i) {
        if (victim[i].valid && victim[i].lineAddr == line_addr)
            return i;
    }
    return static_cast<unsigned>(victim.size());
}

LookupResult
Cache::lookupSlow(uint64_t line_addr, bool is_write, unsigned set)
{
    // Victim buffer: a hit swaps the line back into the main array.
    unsigned vslot = victimFind(line_addr);
    if (vslot < victim.size()) {
        ++cstats.victimHits;
        Line restored = victim[vslot];
        victim[vslot].valid = false;
        // The main-array scan above missed, so locate() yields the
        // first invalid way (or a full set).
        unsigned way = installWay(locate(line_addr));
        Line &slot = lines[static_cast<size_t>(set) * cparams.assoc + way];
        if (slot.valid) {
            // Swap: displaced line moves into the victim buffer.
            victim[vslot] = slot;
            victimStamp[vslot] = ++clock;
        }
        slot = restored;
        if (is_write)
            slot.dirty = true;
        if (cparams.repl == ReplKind::FIFO)
            stamps[static_cast<size_t>(set) * cparams.assoc + way] =
                ++clock;
        touch(set, way);
        LookupResult result;
        result.hit = true;
        result.victimHit = true;
        result.prefetchedLine = restored.prefetched;
        return result;
    }

    ++cstats.misses;
    return LookupResult{};
}

Cache::FillResult
Cache::install(const Slot &target, uint64_t line_addr, bool prefetched,
               bool is_write)
{
    if (prefetched)
        ++cstats.prefetchIssued;
    unsigned set = target.set;
    unsigned way = installWay(target);
    Line &slot = lines[static_cast<size_t>(set) * cparams.assoc + way];

    FillResult result;
    if (slot.valid) {
        result.evictedValid = true;
        result.evictedDirty = slot.dirty;
        result.evictedLine = slot.lineAddr;
        if (slot.dirty)
            ++cstats.writebacks;
        if (!victim.empty()) {
            // Evicted lines land in the victim buffer (oldest replaced).
            unsigned oldest = 0;
            for (unsigned i = 1; i < victim.size(); ++i) {
                if (!victim[i].valid
                    || victimStamp[i] < victimStamp[oldest])
                    oldest = i;
                if (!victim[i].valid)
                    break;
            }
            victim[oldest] = slot;
            victimStamp[oldest] = ++clock;
        }
    }
    slot = Line{line_addr, true, is_write, prefetched};
    if (cparams.repl == ReplKind::FIFO || cparams.repl == ReplKind::LRU)
        stamps[static_cast<size_t>(set) * cparams.assoc + way] = ++clock;
    touch(set, way);
    return result;
}

void
Cache::writebackInto(uint64_t line_addr)
{
    Slot slot = locate(line_addr);
    if (slot.resident)
        lines[static_cast<size_t>(slot.set) * cparams.assoc + slot.way]
            .dirty = true;
    else
        install(slot, line_addr, false, true);
}

} // namespace raceval::cache
