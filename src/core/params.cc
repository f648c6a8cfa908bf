#include "core/params.hh"

#include "common/log.hh"

namespace raceval::core
{

using isa::OpClass;

FuPool
poolOf(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Nop:
      case OpClass::Halt:
        return FuPool::IntAlu;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return FuPool::IntMul;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
      case OpClass::FpCvt:
      case OpClass::FpMov:
      case OpClass::SimdAdd:
      case OpClass::SimdMul:
        return FuPool::FpSimd;
      case OpClass::Load:
        return FuPool::Load;
      case OpClass::Store:
        return FuPool::Store;
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::BranchIndirect:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return FuPool::Branch;
      default:
        panic("poolOf: bad class %d", static_cast<int>(cls));
    }
}

LatencyTable
defaultLatencies()
{
    LatencyTable lat{};
    lat[static_cast<size_t>(OpClass::IntAlu)] = 1;
    lat[static_cast<size_t>(OpClass::IntMul)] = 4;
    lat[static_cast<size_t>(OpClass::IntDiv)] = 12;
    lat[static_cast<size_t>(OpClass::FpAdd)] = 4;
    lat[static_cast<size_t>(OpClass::FpMul)] = 5;
    lat[static_cast<size_t>(OpClass::FpDiv)] = 14;
    lat[static_cast<size_t>(OpClass::FpSqrt)] = 16;
    lat[static_cast<size_t>(OpClass::FpCvt)] = 3;
    lat[static_cast<size_t>(OpClass::FpMov)] = 2;
    lat[static_cast<size_t>(OpClass::SimdAdd)] = 3;
    lat[static_cast<size_t>(OpClass::SimdMul)] = 5;
    // Load latency comes from the cache model; Store is the cycle the
    // data leaves the pipe (drain is modeled separately).
    lat[static_cast<size_t>(OpClass::Load)] = 0;
    lat[static_cast<size_t>(OpClass::Store)] = 1;
    lat[static_cast<size_t>(OpClass::BranchCond)] = 1;
    lat[static_cast<size_t>(OpClass::BranchUncond)] = 1;
    lat[static_cast<size_t>(OpClass::BranchIndirect)] = 1;
    lat[static_cast<size_t>(OpClass::BranchCall)] = 1;
    lat[static_cast<size_t>(OpClass::BranchRet)] = 1;
    lat[static_cast<size_t>(OpClass::Nop)] = 1;
    lat[static_cast<size_t>(OpClass::Halt)] = 1;
    return lat;
}

void
CoreParams::validate() const
{
    if (!fetchWidth || !dispatchWidth || !commitWidth)
        fatal("core %s: zero pipeline width", name.c_str());
    if (!numIntAlu || !numFpSimd || !numLoadPorts || !numStorePorts
        || !numIntMul || !numBranch)
        fatal("core %s: every FU pool needs at least one unit",
              name.c_str());
    if (!storeBufferEntries)
        fatal("core %s: zero store buffer", name.c_str());
    if (!robEntries || !iqEntries || !lqEntries || !sqEntries)
        fatal("core %s: zero window resource", name.c_str());
    if (storeForwardWindow > 4096)
        fatal("core %s: storeForwardWindow %u is absurd (the "
              "forwarding check scans the whole window per load)",
              name.c_str(), storeForwardWindow);
    for (size_t cls = 0; cls < isa::numOpClasses; ++cls) {
        if (cls != static_cast<size_t>(isa::OpClass::Load)
            && latency[cls] == 0)
            fatal("core %s: zero latency for class %s", name.c_str(),
                  isa::opClassName(static_cast<isa::OpClass>(cls)));
    }
    mem.validate();
}

unsigned
CoreParams::poolSize(FuPool pool) const
{
    switch (pool) {
      case FuPool::IntAlu: return numIntAlu;
      case FuPool::IntMul: return numIntMul;
      case FuPool::FpSimd: return numFpSimd;
      case FuPool::Load: return numLoadPorts;
      case FuPool::Store: return numStorePorts;
      case FuPool::Branch: return numBranch;
      default: panic("bad pool %d", static_cast<int>(pool));
    }
}

namespace
{

/** Shared hierarchy skeleton for the RK3399's two clusters. */
cache::HierarchyParams
rk3399Hierarchy(uint64_t l1i_size, uint64_t l2_size)
{
    cache::HierarchyParams mem;
    mem.l1i.name = "l1i";
    mem.l1i.sizeBytes = l1i_size;
    mem.l1i.assoc = 2;
    mem.l1i.lineBytes = 64;
    mem.l1i.latency = 1;
    mem.l1d.name = "l1d";
    mem.l1d.sizeBytes = 32 * KiB;
    mem.l1d.assoc = 4;
    mem.l1d.lineBytes = 64;
    mem.l1d.latency = 3;      // typical lmbench estimate
    mem.l2.name = "l2";
    mem.l2.sizeBytes = l2_size;
    mem.l2.assoc = 16;
    mem.l2.lineBytes = 64;
    mem.l2.latency = 12;      // typical lmbench estimate
    mem.l2.mshrs = 8;
    mem.dram.latency = 170;
    mem.dram.cyclesPerLine = 8;
    // The abstract models time prefetch arrivals (a line is usable
    // only once its fill would have completed); only the *bandwidth*
    // consumed by prefetch traffic is elided, which stays part of the
    // abstraction gap vs. the detailed hardware model.
    mem.timedPrefetch = true;
    return mem;
}

} // namespace

CoreParams
publicInfoA53()
{
    CoreParams p;
    p.name = "a53-public";
    // TRM facts: dual-issue in-order, 8-stage pipeline.
    p.fetchWidth = 2;
    p.dispatchWidth = 2;
    p.commitWidth = 2;
    p.numIntAlu = 2;
    p.numIntMul = 1;
    p.numFpSimd = 1;
    p.numLoadPorts = 1;
    p.numStorePorts = 1;
    p.numBranch = 1;
    // Guesses below here (the specification gap the tuner closes).
    p.mispredictPenalty = 6;          // guess from pipeline depth
    p.storeBufferEntries = 2;         // undisclosed
    p.forwarding = true;
    p.forwardLatency = 2;             // undisclosed
    p.latency = defaultLatencies();   // generic textbook numbers
    p.mem = rk3399Hierarchy(32 * KiB, 512 * KiB);
    p.mem.l1d.mshrs = 2;              // undisclosed: conservative guess
    p.mem.l1d.prefetch = cache::PrefetchKind::None; // undisclosed
    p.mem.l2.prefetch = cache::PrefetchKind::None;
    p.bp.kind = branch::PredictorKind::Bimodal;     // undisclosed
    p.bp.tableBits = 10;
    p.bp.btbBits = 8;
    p.bp.rasEntries = 4;
    p.bp.indirect = false;            // the CS1 story: no indirect pred
    return p;
}

CoreParams
publicInfoA72()
{
    CoreParams p;
    p.name = "a72-public";
    // TRM facts: 3-wide decode, 8 issue ports, out-of-order.
    p.fetchWidth = 3;
    p.dispatchWidth = 3;
    p.commitWidth = 3;
    p.numIntAlu = 2;
    p.numIntMul = 1;
    p.numFpSimd = 2;
    p.numLoadPorts = 1;
    p.numStorePorts = 1;
    p.numBranch = 1;
    // Guesses (the real ROB/queues are undisclosed).
    p.mispredictPenalty = 12;
    p.robEntries = 64;
    p.iqEntries = 24;
    p.lqEntries = 16;
    p.sqEntries = 12;
    p.storeBufferEntries = 4;
    p.forwarding = true;
    p.forwardLatency = 2;
    p.latency = defaultLatencies();
    p.mem = rk3399Hierarchy(48 * KiB, 1 * MiB);
    p.mem.l1i.assoc = 3;
    p.mem.l1d.mshrs = 4;
    p.mem.l1d.prefetch = cache::PrefetchKind::None;
    p.mem.l2.prefetch = cache::PrefetchKind::None;
    p.bp.kind = branch::PredictorKind::Bimodal;
    p.bp.tableBits = 11;
    p.bp.btbBits = 9;
    p.bp.rasEntries = 8;
    p.bp.indirect = false;
    return p;
}

CoreParams
publicInfoCortexM()
{
    CoreParams p;
    p.name = "cortex-m-public";
    // Datasheet facts: single-issue in-order, short pipeline, 16 KiB
    // L1s with 32-byte lines, no L2, flat TCM-like memory.
    p.fetchWidth = 1;
    p.dispatchWidth = 1;
    p.commitWidth = 1;
    p.numIntAlu = 1;
    p.numIntMul = 1;
    p.numFpSimd = 1;
    p.numLoadPorts = 1;
    p.numStorePorts = 1;
    p.numBranch = 1;
    // Guesses below here (the specification gap the tuner closes).
    p.mispredictPenalty = 2;          // guess from pipeline depth
    p.storeBufferEntries = 1;         // undisclosed
    p.forwarding = true;
    p.forwardLatency = 2;             // undisclosed
    p.latency = defaultLatencies();   // generic textbook numbers
    p.mem.l1i.name = "l1i";
    p.mem.l1i.sizeBytes = 16 * KiB;
    p.mem.l1i.assoc = 2;
    p.mem.l1i.lineBytes = 32;
    p.mem.l1i.latency = 1;
    p.mem.l1d.name = "l1d";
    p.mem.l1d.sizeBytes = 16 * KiB;
    p.mem.l1d.assoc = 4;
    p.mem.l1d.lineBytes = 32;
    p.mem.l1d.latency = 2;            // typical lmbench estimate
    p.mem.l1d.mshrs = 1;              // undisclosed: conservative guess
    p.mem.l2Present = false;
    p.mem.dram.latency = 12;          // flash wait-state guess
    p.mem.dram.cyclesPerLine = 2;
    p.mem.timedPrefetch = true;
    p.bp.kind = branch::PredictorKind::NotTaken; // undisclosed
    p.bp.tableBits = 6;
    p.bp.btbBits = 4;
    p.bp.rasEntries = 2;
    p.bp.indirect = false;
    return p;
}

} // namespace raceval::core
