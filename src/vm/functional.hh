/**
 * @file
 * Functional (timing-free) execution of AArch64-lite programs.
 *
 * Plays the role of the DynamoRIO-based front-end in Sniper-ARM: it
 * runs the program and feeds the timing models a dynamic instruction
 * stream. Semantics always use a correct decode; the DecoderOptions
 * fault-injection only corrupts the *exposed* decode embedded in the
 * stream, exactly like a buggy Capstone corrupts Sniper's dependency
 * information while the real hardware still executes correctly.
 */

#ifndef RACEVAL_VM_FUNCTIONAL_HH
#define RACEVAL_VM_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "vm/mem.hh"
#include "vm/trace.hh"

namespace raceval::vm
{

/** Architectural register state. */
struct RegFile
{
    uint64_t x[isa::numIntRegs] = {};
    double d[isa::numFpRegs] = {};

    /** Read an integer register (x31 reads zero). */
    uint64_t
    readX(uint8_t reg) const
    {
        return reg == isa::regZero ? 0 : x[reg];
    }
};

/**
 * Functional core: executes a Program and implements TraceSource.
 *
 * The program image is borrowed; it must outlive the core. reset()
 * restores registers and memory to the initial image so a single core
 * can regenerate the identical stream any number of times.
 */
class FunctionalCore : public TraceSource
{
  public:
    /**
     * @param program the image to execute (borrowed).
     * @param exposed_decoder_options fault injection for the decode
     *        embedded in the emitted stream (not for semantics).
     * @param max_insts safety valve against non-terminating programs.
     */
    explicit FunctionalCore(const isa::Program &program,
                            isa::DecoderOptions exposed_decoder_options = {},
                            uint64_t max_insts = 1ull << 32);

    bool next(DynInst &out) override;
    void reset() override;
    const std::string &name() const override { return prog.name; }
    const isa::Program *program() const override { return &prog; }

    /** @return architectural registers (for tests). */
    const RegFile &regs() const { return regFile; }

    /** @return simulated memory (for tests and result checking). */
    SparseMemory &memory() { return mem; }

    /**
     * Convenience: run to completion, discarding the stream.
     *
     * @return the dynamic instruction count.
     */
    uint64_t run();

  private:
    /**
     * One static instruction: what next() executes, from the semantic
     * (always correct) decode and the raw register fields, next to the
     * exposed (possibly fault-injected) decode it embeds in DynInsts.
     */
    struct StaticInst
    {
        isa::DecodedInst exposed;
        int64_t imm = 0;
        isa::Opcode op = isa::Opcode::Nop;
        /** Raw 5-bit fields, needed where the decoded src list is not
         *  a faithful operand list (e.g. store data vs. address). */
        uint8_t f0 = 0, f1 = 0, f2 = 0, f3 = 0;
        uint8_t hw = 0;
        uint8_t memSize = 0;
    };

    const isa::Program &prog;
    std::vector<StaticInst> code;

    RegFile regFile;
    SparseMemory mem;
    uint64_t pc;
    uint64_t instCount;
    uint64_t maxInsts;
    bool halted;

    void loadImage();
};

} // namespace raceval::vm

#endif // RACEVAL_VM_FUNCTIONAL_HH
