/**
 * @file
 * Small structured assembler for AArch64-lite programs.
 *
 * The micro-benchmark suite (src/ubench) and the SPEC stand-ins
 * (src/workload) are written against this API, playing the role the real
 * micro-benchmark C sources play in the paper.
 */

#ifndef RACEVAL_ISA_ASSEMBLER_HH
#define RACEVAL_ISA_ASSEMBLER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/decoder.hh"
#include "isa/program.hh"
#include "isa/opcodes.hh"

namespace raceval::isa
{

/**
 * Two-pass assembler with label resolution.
 *
 * Integer registers are passed as plain indices 0..31 (31 = xzr);
 * floating-point registers likewise 0..31 (d0..d31). Branch targets are
 * string labels which may be defined before or after use; finish()
 * resolves every fixup and fails loudly on undefined labels.
 */
class Assembler
{
  public:
    explicit Assembler(std::string name, uint64_t code_base = 0x10000);

    /** Define a label at the current position. */
    void label(const std::string &name);

    /// @name Integer register-register ALU
    /// @{
    void add(uint8_t rd, uint8_t rn, uint8_t rm);
    void sub(uint8_t rd, uint8_t rn, uint8_t rm);
    void and_(uint8_t rd, uint8_t rn, uint8_t rm);
    void orr(uint8_t rd, uint8_t rn, uint8_t rm);
    void eor(uint8_t rd, uint8_t rn, uint8_t rm);
    void lsl(uint8_t rd, uint8_t rn, uint8_t rm);
    void lsr(uint8_t rd, uint8_t rn, uint8_t rm);
    void asr(uint8_t rd, uint8_t rn, uint8_t rm);
    void mul(uint8_t rd, uint8_t rn, uint8_t rm);
    void madd(uint8_t rd, uint8_t rn, uint8_t rm, uint8_t ra);
    void udiv(uint8_t rd, uint8_t rn, uint8_t rm);
    void sdiv(uint8_t rd, uint8_t rn, uint8_t rm);
    /// @}

    /// @name Integer immediate ALU
    /// @{
    void addi(uint8_t rd, uint8_t rn, int16_t imm);
    void subi(uint8_t rd, uint8_t rn, int16_t imm);
    void andi(uint8_t rd, uint8_t rn, int16_t imm);
    void orri(uint8_t rd, uint8_t rn, int16_t imm);
    void eori(uint8_t rd, uint8_t rn, int16_t imm);
    void lsli(uint8_t rd, uint8_t rn, int16_t imm);
    void lsri(uint8_t rd, uint8_t rn, int16_t imm);
    void asri(uint8_t rd, uint8_t rn, int16_t imm);
    void movz(uint8_t rd, uint16_t imm, uint8_t hw = 0);
    void movk(uint8_t rd, uint16_t imm, uint8_t hw);
    /** Pseudo-op: materialize an arbitrary 64-bit constant. */
    void loadImm(uint8_t rd, uint64_t value);
    /// @}

    /// @name Memory
    /// @{
    void ldr(uint8_t rt, uint8_t rn, int16_t imm = 0, uint8_t size = 8);
    void str(uint8_t rt, uint8_t rn, int16_t imm = 0, uint8_t size = 8);
    void ldx(uint8_t rt, uint8_t rn, uint8_t rm, uint8_t size = 8);
    void stx(uint8_t rt, uint8_t rn, uint8_t rm, uint8_t size = 8);
    void ldrf(uint8_t ft, uint8_t rn, int16_t imm = 0, uint8_t size = 8);
    void strf(uint8_t ft, uint8_t rn, int16_t imm = 0, uint8_t size = 8);
    /// @}

    /// @name Control flow
    /// @{
    void b(const std::string &target);
    void bl(const std::string &target);
    void ret();
    void br(uint8_t rn);
    void cbz(uint8_t ra, const std::string &target);
    void cbnz(uint8_t ra, const std::string &target);
    void beq(uint8_t ra, uint8_t rb, const std::string &target);
    void bne(uint8_t ra, uint8_t rb, const std::string &target);
    void blt(uint8_t ra, uint8_t rb, const std::string &target);
    void bge(uint8_t ra, uint8_t rb, const std::string &target);
    /// @}

    /// @name Floating point and SIMD
    /// @{
    void fadd(uint8_t fd, uint8_t fn, uint8_t fm);
    void fsub(uint8_t fd, uint8_t fn, uint8_t fm);
    void fmul(uint8_t fd, uint8_t fn, uint8_t fm);
    void fdiv(uint8_t fd, uint8_t fn, uint8_t fm);
    void fsqrt(uint8_t fd, uint8_t fn);
    void fmadd(uint8_t fd, uint8_t fn, uint8_t fm, uint8_t fa);
    void fcvt(uint8_t fd, uint8_t fn);
    void fmov(uint8_t fd, uint8_t fn);
    void fclt(uint8_t rd, uint8_t fn, uint8_t fm);
    void vadd(uint8_t fd, uint8_t fn, uint8_t fm);
    void vmul(uint8_t fd, uint8_t fn, uint8_t fm);
    void vfma(uint8_t fd, uint8_t fn, uint8_t fm, uint8_t fa);
    /// @}

    void nop();
    void halt();

    /** @return current instruction index (for size accounting). */
    size_t here() const { return words.size(); }

    /**
     * Resolve labels and produce the program image.
     *
     * fatal()s on undefined labels or out-of-range branch offsets.
     */
    Program finish();

  private:
    void emit(uint32_t word);
    void emitBranch(Opcode op, uint8_t ra, uint8_t rb,
                    const std::string &target);

    struct Fixup
    {
        size_t index;        //!< instruction slot to patch
        std::string target;  //!< label name
        Format format;       //!< B26 or CB
    };

    std::string progName;
    uint64_t codeBase;
    std::vector<uint32_t> words;
    std::unordered_map<std::string, size_t> labels;
    std::vector<Fixup> fixups;
};

} // namespace raceval::isa

#endif // RACEVAL_ISA_ASSEMBLER_HH
