#include "vm/packed_trace.hh"

#include "common/log.hh"

namespace raceval::vm
{

namespace
{

/** @return true when @p delta is representable in a narrow slot
 *  (wideSentinel itself is reserved). */
bool
fitsNarrow(int64_t delta)
{
    return delta > std::numeric_limits<int32_t>::min()
        && delta <= std::numeric_limits<int32_t>::max();
}

const PackedTrace *
requireTrace(const std::shared_ptr<const PackedTrace> &trace)
{
    RV_ASSERT(trace != nullptr, "packed cursor over null trace");
    return trace.get();
}

} // namespace

PackedTrace
PackedTrace::build(const isa::Program &prog, vm::TraceSource &source)
{
    PackedTrace out;
    out.prog = prog;

    isa::Decoder decoder;
    out.decoded.resize(prog.code.size());
    out.statics.resize(prog.code.size());
    for (size_t i = 0; i < prog.code.size(); ++i) {
        isa::DecodedInst &inst = out.decoded[i];
        if (!decoder.decode(prog.code[i], inst))
            fatal("packed trace: undecodable word 0x%08x in '%s'",
                  prog.code[i], prog.name.c_str());
        PackedStatic &row = out.statics[i];
        row.cls = static_cast<uint8_t>(inst.cls);
        row.dst = inst.dst;
        row.numSrcs = inst.numSrcs;
        for (unsigned s = 0; s < 3; ++s)
            row.src[s] = inst.src[s];
        row.memSize = inst.memSize;
        row.flags = (inst.hasDst() ? flagHasDst : 0)
            | (inst.isBranch ? flagBranch : 0)
            | (inst.isLoad || inst.isStore ? flagMem : 0)
            | static_cast<uint8_t>(
                  static_cast<uint8_t>(isa::opKindOf(inst.cls))
                  << flagKindShift);
    }

    source.reset();
    DynInst dyn;
    uint64_t prev_mem = 0;
    uint64_t branches = 0;
    while (source.next(dyn)) {
        ++out.count;
        // Deltas wrap modulo 2^64, as PackedStream re-applies them.
        if (dyn.inst.isLoad || dyn.inst.isStore) {
            int64_t delta = static_cast<int64_t>(dyn.memAddr - prev_mem);
            if (fitsNarrow(delta)) {
                out.memDelta.push_back(static_cast<int32_t>(delta));
            } else {
                out.memDelta.push_back(wideSentinel);
                out.memWide.push_back(dyn.memAddr);
            }
            prev_mem = dyn.memAddr;
        } else if (dyn.inst.isBranch) {
            if ((branches & 63) == 0)
                out.takenBits.push_back(0);
            if (dyn.taken) {
                out.takenBits.back() |= uint64_t{1} << (branches & 63);
                int64_t delta =
                    static_cast<int64_t>(dyn.nextPc - dyn.pc) / 4;
                if (fitsNarrow(delta)) {
                    out.targetDelta.push_back(
                        static_cast<int32_t>(delta));
                } else {
                    out.targetDelta.push_back(wideSentinel);
                    out.targetWide.push_back(dyn.nextPc);
                }
            }
            ++branches;
        }
    }
    return out;
}

size_t
PackedTrace::packedBytes() const
{
    return statics.size() * sizeof(PackedStatic)
        + memDelta.size() * sizeof(int32_t)
        + memWide.size() * sizeof(uint64_t)
        + takenBits.size() * sizeof(uint64_t)
        + targetDelta.size() * sizeof(int32_t)
        + targetWide.size() * sizeof(uint64_t);
}

PackedCursor::PackedCursor(std::shared_ptr<const PackedTrace> trace)
    : owned(std::move(trace)), t(requireTrace(owned)), stream(*t)
{
}

PackedCursor::PackedCursor(const PackedTrace &trace)
    : t(&trace), stream(trace)
{
}

bool
PackedCursor::next(DynInst &out)
{
    if (!stream.next())
        return false;
    out.pc = stream.pc();
    out.inst = t->decodedAt(stream.staticIndex());
    // Zero the fields the event does not carry, as FunctionalCore
    // does, so cursor replay is bit-identical field-for-field.
    bool is_mem = out.inst.isLoad || out.inst.isStore;
    out.memAddr = is_mem ? stream.memAddr() : 0;
    out.taken = out.inst.isBranch ? stream.taken() : false;
    out.nextPc = stream.nextPc();
    return true;
}

} // namespace raceval::vm
