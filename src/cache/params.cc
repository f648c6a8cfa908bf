#include "cache/params.hh"

#include "common/log.hh"

namespace raceval::cache
{

void
CacheParams::validate() const
{
    if (!isPowerOfTwo(lineBytes) || lineBytes < 8)
        fatal("cache %s: bad line size %u", name.c_str(), lineBytes);
    if (assoc == 0 || sizeBytes % (assoc * lineBytes) != 0)
        fatal("cache %s: size %llu not divisible by assoc*line",
              name.c_str(), static_cast<unsigned long long>(sizeBytes));
    if (!isPowerOfTwo(numSets()))
        fatal("cache %s: set count %u not a power of two",
              name.c_str(), numSets());
    if (latency == 0)
        fatal("cache %s: zero latency", name.c_str());
    if (mshrs == 0)
        fatal("cache %s: zero mshrs", name.c_str());
    if (portsPerCycle == 0)
        fatal("cache %s: zero ports", name.c_str());
}

void
HierarchyParams::validate() const
{
    l1i.validate();
    l1d.validate();
    if (l2Present) {
        l2.validate();
        if (l2.lineBytes != l1d.lineBytes)
            fatal("hierarchy: all levels must share one line size");
    }
    if (l1i.lineBytes != l1d.lineBytes)
        fatal("hierarchy: all levels must share one line size");
    if (dram.latency == 0)
        fatal("hierarchy: zero dram latency");
}

} // namespace raceval::cache
