#include "cache/hierarchy.hh"

#include "common/log.hh"

namespace raceval::cache
{

namespace
{

/** Slots the in-flight table starts with (grows by doubling). */
constexpr size_t inFlightMinSlots = 64;

} // namespace

InFlightTable::InFlightTable()
    : slots(inFlightMinSlots), mask(inFlightMinSlots - 1),
      shift(64 - floorLog2(inFlightMinSlots))
{
}

void
InFlightTable::clear()
{
    if (count == 0)
        return;
    std::fill(slots.begin(), slots.end(), Slot{});
    count = 0;
    hasEmptyLine = false;
}

void
InFlightTable::erase(size_t hole)
{
    // Backward-shift deletion: pull later members of the probe chain
    // into the hole unless that would move one before its home slot.
    for (size_t i = (hole + 1) & mask; slots[i].line != emptyLine;
         i = (i + 1) & mask) {
        size_t want = homeSlot(slots[i].line);
        bool movable = hole <= i ? (want <= hole || want > i)
                                 : (want <= hole && want > i);
        if (movable) {
            slots[hole] = slots[i];
            hole = i;
        }
    }
    slots[hole] = Slot{};
    --count;
}

void
InFlightTable::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    mask = slots.size() - 1;
    --shift;
    for (const Slot &slot : old) {
        if (slot.line == emptyLine)
            continue;
        size_t i = homeSlot(slot.line);
        while (slots[i].line != emptyLine)
            i = (i + 1) & mask;
        slots[i] = slot;
    }
}

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params,
                                 uint64_t rng_seed)
    : hparams(params),
      lineShift(floorLog2(params.l1d.lineBytes)),
      l1iCache(params.l1i, rng_seed + 1),
      l1dCache(params.l1d, rng_seed + 2),
      l2Cache(params.l2, rng_seed + 3),
      dramModel(params.dram),
      l1dPrefetcher(makePrefetcher(params.l1d)),
      l1iPrefetcher(makePrefetcher(params.l1i)),
      l2Prefetcher(makePrefetcher(params.l2))
{
    hparams.validate();
}

void
MemoryHierarchy::reset()
{
    l1iCache.reset();
    l1dCache.reset();
    l2Cache.reset();
    dramModel.reset();
    if (l1dPrefetcher)
        l1dPrefetcher->reset();
    if (l1iPrefetcher)
        l1iPrefetcher->reset();
    if (l2Prefetcher)
        l2Prefetcher->reset();
    inFlight.clear();
}

void
MemoryHierarchy::runPrefetcher(Prefetcher *prefetcher, Cache &level,
                               uint64_t pc, uint64_t line, bool miss,
                               uint64_t now)
{
    if (!prefetcher)
        return;
    prefetchScratch.clear();
    prefetcher->observe(pc, line, miss, prefetchScratch);
    // An L1 prefetch fills L2 on the way (and writes L1's dirty
    // victim back into it); an L2 prefetch fills L2 only.
    bool has_l2_below = &level != &l2Cache && hparams.l2Present;
    for (uint64_t pf_line : prefetchScratch) {
        // One scan of the target set: skip resident lines, else
        // remember where the line installs.
        Cache::Slot slot = level.locate(pf_line);
        if (slot.resident)
            continue;
        // Determine the fill source for timing/bandwidth accounting.
        bool in_l2 = has_l2_below && l2Cache.probe(pf_line);
        uint64_t ready = now + (in_l2 ? hparams.l2.latency
                                      : hparams.dram.latency);
        if (!in_l2) {
            if (hparams.prefetchConsumesBandwidth)
                dramModel.writeback(now); // occupies the channel
            if (has_l2_below)
                l2Cache.fill(pf_line, true, false);
        }
        Cache::FillResult fill = level.install(slot, pf_line, true, false);
        if (fill.evictedDirty && has_l2_below)
            l2Cache.writebackInto(fill.evictedLine);
        if (hparams.timedPrefetch)
            inFlight.assign(pf_line, ready);
    }
}

void
MemoryHierarchy::chargeInFlight(uint64_t line, uint64_t now,
                                AccessResult &result)
{
    std::optional<uint64_t> ready = inFlight.take(line);
    if (ready && *ready > now) {
        // Demand caught up with an in-flight prefetch: wait for the
        // remaining fill time.
        result.latency += static_cast<unsigned>(*ready - now);
    }
}

AccessResult
MemoryHierarchy::accessMiss(uint64_t pc, uint64_t line, bool is_store,
                            uint64_t now, AccessResult result,
                            Cache &level1)
{
    if (!hparams.l2Present) {
        // L1 miss -> flat memory (TCM-like microcontroller hierarchy):
        // no L2 lookup latency, no L2 fill, dirty evictions go straight
        // back over the memory channel.
        result.latency += dramModel.access(now);
        result.servedBy = ServedBy::Memory;
        Cache::FillResult fill = level1.fill(line, false, is_store);
        if (fill.evictedDirty)
            dramModel.writeback(now);
        if (inFlight.size() > 4096)
            inFlight.clear();
        return result;
    }

    // L1 miss -> L2.
    result.latency += hparams.l2.latency
        + (hparams.l2.serialTagData ? 1 : 0);
    LookupResult l2 = l2Cache.lookup(line, false);
    runPrefetcher(l2Prefetcher.get(), l2Cache, pc, line, !l2.hit, now);

    if (!l2.hit) {
        // L2 miss -> DRAM.
        result.latency += dramModel.access(now);
        result.servedBy = ServedBy::Memory;
        Cache::FillResult l2fill = l2Cache.fill(line, false, false);
        if (l2fill.evictedDirty)
            dramModel.writeback(now);
    } else {
        result.servedBy = ServedBy::L2;
        if (l2.victimHit)
            result.latency += 1;
        if (hparams.timedPrefetch && l2.prefetchedLine)
            chargeInFlight(line, now, result);
    }

    Cache::FillResult l1fill = level1.fill(line, false, is_store);
    if (l1fill.evictedDirty)
        l2Cache.writebackInto(l1fill.evictedLine);

    // Keep the in-flight map bounded: stale entries are prefetches that
    // were evicted before use.
    if (inFlight.size() > 4096)
        inFlight.clear();
    return result;
}

} // namespace raceval::cache
