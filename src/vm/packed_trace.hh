/**
 * @file
 * Structure-of-arrays packed trace representation -- the replay hot
 * path's working set.
 *
 * A PackedTrace is built once per recording, straight from the
 * functional core, and splits the dynamic stream into cache-friendly
 * parallel arrays, so replay pays no decode and no varint cost per
 * instruction:
 *
 *   - an 8-byte PackedStatic row per static instruction (opcode class,
 *     operand indices, memory size, flags) next to the full DecodedInst
 *     table for consumers that need it;
 *   - a 4-byte stride-compressed delta per memory event (with a wide
 *     side table for the rare delta that does not fit 32 bits);
 *   - one taken bit per branch event plus a 4-byte target delta per
 *     taken branch (same wide fallback).
 *
 * Nothing is stored per non-event instruction: the pc chain is implied
 * (pc + 4 except taken branches). Replay then streams these arrays
 * through a PackedStream -- the zero-virtual-call view the timing
 * models' replay loop is templated over -- or through a PackedCursor
 * when a generic vm::TraceSource is needed. Both emit streams
 * bit-identical to the live FunctionalCore stream the trace was
 * recorded from.
 */

#ifndef RACEVAL_VM_PACKED_TRACE_HH
#define RACEVAL_VM_PACKED_TRACE_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "isa/decoder.hh"
#include "isa/program.hh"
#include "vm/trace.hh"

namespace raceval::vm
{

/** Per-static-instruction replay row (everything the replay loop
 *  reads per instruction, packed into 8 bytes). */
struct PackedStatic
{
    uint8_t cls = 0;     //!< isa::OpClass
    uint8_t flags = 0;   //!< PackedTrace::flag* bits
    uint8_t dst = 0;     //!< destination register (isa::noReg = none)
    uint8_t numSrcs = 0;
    uint8_t src[3] = {0, 0, 0};
    uint8_t memSize = 0; //!< access bytes (0 = not a memory op)
};

static_assert(sizeof(PackedStatic) == 8, "PackedStatic must stay 8 bytes");

/**
 * One immutable packed recording. Self-contained (owns a copy of the
 * program and its static decode), safe to share behind a shared_ptr;
 * all replay state lives in PackedStream / PackedCursor.
 */
class PackedTrace
{
  public:
    /// PackedStatic::flags bits.
    /// @{
    static constexpr uint8_t flagHasDst = 1;
    static constexpr uint8_t flagBranch = 2;
    static constexpr uint8_t flagMem = 4;
    /** Bits [4:3] hold the precomputed isa::OpKind dispatch tag, so
     *  the replay loop classifies an instruction once with one shift
     *  instead of re-deriving class comparisons per dynamic
     *  instruction (always consistent with flagBranch/flagMem; the
     *  static-row tag golden test locks the encoding in). */
    static constexpr uint8_t flagKindShift = 3;
    static constexpr uint8_t flagKindMask = 3; //!< post-shift mask
    /// @}

    /** Narrow delta slot meaning "read the next wide-table entry". */
    static constexpr int32_t wideSentinel =
        std::numeric_limits<int32_t>::min();

    /**
     * Pack one full recording.
     *
     * Drains @p source to completion (reset() first); the stream must
     * execute @p prog (event pcs index its code). The static decode is
     * redone with a default isa::Decoder, so a source that exposes a
     * fault-injected decode replays with the correct one.
     *
     * @param prog the program behind the stream.
     * @param source dynamic stream to pack (e.g. a FunctionalCore).
     */
    static PackedTrace build(const isa::Program &prog,
                             vm::TraceSource &source);

    const std::string &name() const { return prog.name; }
    const isa::Program &program() const { return prog; }

    /** @return total dynamic instructions. */
    uint64_t instCount() const { return count; }

    /** @return static decode of instruction word i. */
    const isa::DecodedInst &decodedAt(size_t i) const { return decoded[i]; }

    /** @return the packed replay row of static instruction word i (the
     *  8-byte view the replay loop reads). */
    const PackedStatic &staticRow(size_t i) const { return statics[i]; }

    /** @return bytes held by the packed replay arrays (the stream the
     *  hot loop actually touches; excludes the program copy and the
     *  DecodedInst table). */
    size_t packedBytes() const;

  private:
    friend class PackedStream;

    PackedTrace() = default;

    isa::Program prog;
    std::vector<isa::DecodedInst> decoded; //!< per static word
    std::vector<PackedStatic> statics;     //!< per static word
    uint64_t count = 0;

    // Dynamic SoA streams (each consumed sequentially by replay).
    std::vector<int32_t> memDelta;    //!< per memory event
    std::vector<uint64_t> memWide;    //!< wideSentinel overflow addrs
    std::vector<uint64_t> takenBits;  //!< 1 bit per branch event
    std::vector<int32_t> targetDelta; //!< per taken branch, (t - pc)/4
    std::vector<uint64_t> targetWide; //!< wideSentinel overflow targets
};

/**
 * Zero-virtual-call replay view over a PackedTrace.
 *
 * This is the "Stream" type the timing models' replay loop is
 * templated over: next() advances to the next dynamic instruction and
 * the accessors expose exactly the fields the models read. Accessors
 * whose flag is not set on the current instruction return unspecified
 * values (mirroring DynInst's "undefined otherwise" contract), except
 * nextPc(), which is always the executed successor pc.
 */
class PackedStream
{
  public:
    explicit PackedStream(const PackedTrace &trace) : t(&trace)
    {
        rewind();
    }

    /** Restart from the beginning of the trace. */
    void
    rewind()
    {
        done = 0;
        index = 0;
        curIndex = 0;
        prevMem = 0;
        curMem = 0;
        curNextPc = 0;
        curTaken = false;
        memPos = 0;
        memWidePos = 0;
        brPos = 0;
        tgtPos = 0;
        tgtWidePos = 0;
        row = nullptr;
    }

    /** Advance to the next instruction; false at end of trace. */
    bool
    next()
    {
        if (done >= t->count)
            return false;
        curIndex = index;
        row = &t->statics[index];
        uint64_t pc_now = t->prog.codeBase + 4 * index;
        size_t next_index = index + 1;
        curNextPc = pc_now + 4;
        if (row->flags & PackedTrace::flagMem) {
            int32_t delta = t->memDelta[memPos++];
            curMem = delta == PackedTrace::wideSentinel
                ? t->memWide[memWidePos++]
                : prevMem + static_cast<uint64_t>(
                      static_cast<int64_t>(delta));
            prevMem = curMem;
        } else if (row->flags & PackedTrace::flagBranch) {
            curTaken = (t->takenBits[brPos >> 6] >> (brPos & 63)) & 1;
            ++brPos;
            if (curTaken) {
                int32_t delta = t->targetDelta[tgtPos++];
                curNextPc = delta == PackedTrace::wideSentinel
                    ? t->targetWide[tgtWidePos++]
                    : pc_now + static_cast<uint64_t>(
                          4 * static_cast<int64_t>(delta));
                next_index =
                    static_cast<size_t>((curNextPc - t->prog.codeBase)
                                        / 4);
            }
        }
        index = next_index;
        ++done;
        return true;
    }

    uint64_t pc() const { return t->prog.codeBase + 4 * curIndex; }
    isa::OpClass cls() const
    {
        return static_cast<isa::OpClass>(row->cls);
    }
    unsigned srcCount() const { return row->numSrcs; }
    uint8_t srcReg(unsigned i) const { return row->src[i]; }
    bool hasDst() const { return row->flags & PackedTrace::flagHasDst; }
    uint8_t dstReg() const { return row->dst; }
    unsigned memSize() const { return row->memSize; }
    bool isBranch() const { return row->flags & PackedTrace::flagBranch; }
    isa::OpKind
    kind() const
    {
        return static_cast<isa::OpKind>(
            (row->flags >> PackedTrace::flagKindShift)
            & PackedTrace::flagKindMask);
    }
    uint64_t memAddr() const { return curMem; }
    bool taken() const { return curTaken; }
    uint64_t nextPc() const { return curNextPc; }

    /** @return static index of the current instruction. */
    size_t staticIndex() const { return curIndex; }

  private:
    const PackedTrace *t;
    uint64_t done = 0;
    size_t index = 0;    //!< static index of the *next* instruction
    size_t curIndex = 0; //!< static index of the current instruction
    uint64_t prevMem = 0;
    uint64_t curMem = 0;
    uint64_t curNextPc = 0;
    bool curTaken = false;
    size_t memPos = 0;
    size_t memWidePos = 0;
    size_t brPos = 0; //!< branch events consumed (bit position)
    size_t tgtPos = 0;
    size_t tgtWidePos = 0;
    const PackedStatic *row = nullptr;
};

/**
 * Adapter giving a generic vm::TraceSource the same duck-typed stream
 * interface as PackedStream, so one templated replay loop serves both
 * the packed hot path and arbitrary sources (live functional
 * execution, a PackedCursor) -- which is what makes the two paths
 * bit-identical by construction.
 */
class SourceStream
{
  public:
    explicit SourceStream(TraceSource &source) : src(&source) {}

    bool next() { return src->next(dyn); }

    uint64_t pc() const { return dyn.pc; }
    isa::OpClass cls() const { return dyn.inst.cls; }
    unsigned srcCount() const { return dyn.inst.numSrcs; }
    uint8_t srcReg(unsigned i) const { return dyn.inst.src[i]; }
    bool hasDst() const { return dyn.inst.hasDst(); }
    uint8_t dstReg() const { return dyn.inst.dst; }
    unsigned memSize() const { return dyn.inst.memSize; }
    bool isBranch() const { return dyn.inst.isBranch; }
    isa::OpKind kind() const { return isa::opKindOf(dyn.inst.cls); }
    uint64_t memAddr() const { return dyn.memAddr; }
    bool taken() const { return dyn.taken; }
    uint64_t nextPc() const { return dyn.nextPc; }

  private:
    TraceSource *src;
    DynInst dyn;
};

/**
 * A packed trace replayed through the generic TraceSource interface
 * (for consumers that are not templated over streams). Emits DynInsts
 * bit-identical to the live FunctionalCore stream it was recorded
 * from.
 */
class PackedCursor final : public TraceSource
{
  public:
    /** Share ownership of the trace (TraceBank handles). */
    explicit PackedCursor(std::shared_ptr<const PackedTrace> trace);

    /** Borrow the trace (caller guarantees lifetime). */
    explicit PackedCursor(const PackedTrace &trace);

    bool next(DynInst &out) override;
    void reset() override { stream.rewind(); }
    const std::string &name() const override { return t->name(); }
    const isa::Program *program() const override { return &t->program(); }

  private:
    std::shared_ptr<const PackedTrace> owned; //!< may be null (borrowed)
    const PackedTrace *t;
    PackedStream stream;
};

} // namespace raceval::vm

#endif // RACEVAL_VM_PACKED_TRACE_HH
