#include "core/contention.hh"

#include "common/log.hh"

namespace raceval::core
{

using isa::OpClass;

ContentionModel::ContentionModel(const CoreParams &params)
    : latency(params.latency)
{
    for (size_t pool = 0; pool < numFuPools; ++pool) {
        unsigned units = params.poolSize(static_cast<FuPool>(pool));
        pools[pool].units = units;
        pools[pool].freeAt.assign(units, 0);
        pools[pool].cycleStamp.assign(rateWindow, ~0ull);
        pools[pool].startedInCycle.assign(rateWindow, 0);
    }
    for (size_t cls = 0; cls < isa::numOpClasses; ++cls)
        poolIndex[cls] = static_cast<uint8_t>(
            poolOf(static_cast<OpClass>(cls)));
    pipelined.fill(true);
    pipelined[static_cast<size_t>(OpClass::IntDiv)] =
        params.intDivPipelined;
    pipelined[static_cast<size_t>(OpClass::FpDiv)] = params.fpDivPipelined;
    pipelined[static_cast<size_t>(OpClass::FpSqrt)] =
        params.fpDivPipelined;
}

uint64_t
ContentionModel::earliestFree(OpClass cls) const
{
    const Pool &pool = pools[poolIndex[static_cast<size_t>(cls)]];
    if (pipelined[static_cast<size_t>(cls)])
        return 0; // rate-limited pools accept new ops every cycle
    uint64_t best = pool.freeAt[0];
    for (size_t i = 1; i < pool.freeAt.size(); ++i) {
        if (pool.freeAt[i] < best)
            best = pool.freeAt[i];
    }
    return best;
}

void
ContentionModel::reset()
{
    for (auto &pool : pools) {
        std::fill(pool.freeAt.begin(), pool.freeAt.end(), 0);
        std::fill(pool.cycleStamp.begin(), pool.cycleStamp.end(), ~0ull);
        std::fill(pool.startedInCycle.begin(),
                  pool.startedInCycle.end(), uint8_t{0});
    }
}

} // namespace raceval::core
