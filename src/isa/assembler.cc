#include "isa/assembler.hh"

#include "common/log.hh"

namespace raceval::isa
{

Assembler::Assembler(std::string name, uint64_t code_base)
    : progName(std::move(name)), codeBase(code_base)
{
    RV_ASSERT(code_base % 4 == 0, "code base must be 4-byte aligned");
}

void
Assembler::emit(uint32_t word)
{
    words.push_back(word);
}

void
Assembler::label(const std::string &name)
{
    if (labels.count(name))
        fatal("assembler: duplicate label '%s'", name.c_str());
    labels[name] = words.size();
}

// --- integer register-register -----------------------------------------

void Assembler::add(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Add, rd, rn, rm)); }
void Assembler::sub(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Sub, rd, rn, rm)); }
void Assembler::and_(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::And, rd, rn, rm)); }
void Assembler::orr(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Orr, rd, rn, rm)); }
void Assembler::eor(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Eor, rd, rn, rm)); }
void Assembler::lsl(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Lsl, rd, rn, rm)); }
void Assembler::lsr(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Lsr, rd, rn, rm)); }
void Assembler::asr(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Asr, rd, rn, rm)); }
void Assembler::mul(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Mul, rd, rn, rm)); }
void Assembler::madd(uint8_t rd, uint8_t rn, uint8_t rm, uint8_t ra)
{ emit(encodeR(Opcode::Madd, rd, rn, rm, ra)); }
void Assembler::udiv(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Udiv, rd, rn, rm)); }
void Assembler::sdiv(uint8_t rd, uint8_t rn, uint8_t rm)
{ emit(encodeR(Opcode::Sdiv, rd, rn, rm)); }

// --- integer immediate ---------------------------------------------------

void Assembler::addi(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Addi, rd, rn, imm)); }
void Assembler::subi(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Subi, rd, rn, imm)); }
void Assembler::andi(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Andi, rd, rn, imm)); }
void Assembler::orri(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Orri, rd, rn, imm)); }
void Assembler::eori(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Eori, rd, rn, imm)); }
void Assembler::lsli(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Lsli, rd, rn, imm)); }
void Assembler::lsri(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Lsri, rd, rn, imm)); }
void Assembler::asri(uint8_t rd, uint8_t rn, int16_t imm)
{ emit(encodeI(Opcode::Asri, rd, rn, imm)); }
void Assembler::movz(uint8_t rd, uint16_t imm, uint8_t hw)
{ emit(encodeWide(Opcode::Movz, rd, hw, imm)); }
void Assembler::movk(uint8_t rd, uint16_t imm, uint8_t hw)
{ emit(encodeWide(Opcode::Movk, rd, hw, imm)); }

void
Assembler::loadImm(uint8_t rd, uint64_t value)
{
    movz(rd, static_cast<uint16_t>(value & 0xffff), 0);
    for (uint8_t hw = 1; hw < 4; ++hw) {
        uint16_t chunk = static_cast<uint16_t>((value >> (16 * hw))
                                               & 0xffff);
        if (chunk)
            movk(rd, chunk, hw);
    }
}

// --- memory --------------------------------------------------------------

namespace
{
uint8_t
sizeLog2(uint8_t size)
{
    switch (size) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      case 8: return 3;
      default: fatal("assembler: bad memory access size %d", size);
    }
}
} // namespace

void Assembler::ldr(uint8_t rt, uint8_t rn, int16_t imm, uint8_t size)
{ emit(encodeMemImm(Opcode::Ldr, rt, rn, sizeLog2(size), imm)); }
void Assembler::str(uint8_t rt, uint8_t rn, int16_t imm, uint8_t size)
{ emit(encodeMemImm(Opcode::Str, rt, rn, sizeLog2(size), imm)); }
void Assembler::ldx(uint8_t rt, uint8_t rn, uint8_t rm, uint8_t size)
{ emit(encodeMemReg(Opcode::Ldx, rt, rn, rm, sizeLog2(size))); }
void Assembler::stx(uint8_t rt, uint8_t rn, uint8_t rm, uint8_t size)
{ emit(encodeMemReg(Opcode::Stx, rt, rn, rm, sizeLog2(size))); }
void Assembler::ldrf(uint8_t ft, uint8_t rn, int16_t imm, uint8_t size)
{ emit(encodeMemImm(Opcode::Ldrf, ft, rn, sizeLog2(size), imm)); }
void Assembler::strf(uint8_t ft, uint8_t rn, int16_t imm, uint8_t size)
{ emit(encodeMemImm(Opcode::Strf, ft, rn, sizeLog2(size), imm)); }

// --- control flow ----------------------------------------------------------

void
Assembler::emitBranch(Opcode op, uint8_t ra, uint8_t rb,
                      const std::string &target)
{
    fixups.push_back(Fixup{words.size(), target, formatOf(op)});
    if (formatOf(op) == Format::B26)
        emit(encodeB26(op, 0));
    else
        emit(encodeCB(op, ra, rb, 0));
}

void Assembler::b(const std::string &target)
{ emitBranch(Opcode::B, 0, 0, target); }
void Assembler::bl(const std::string &target)
{ emitBranch(Opcode::Bl, 0, 0, target); }
void Assembler::ret()
{ emit(encodeRJump(Opcode::Ret, regLink)); }
void Assembler::br(uint8_t rn)
{ emit(encodeRJump(Opcode::Br, rn)); }
void Assembler::cbz(uint8_t ra, const std::string &target)
{ emitBranch(Opcode::Cbz, ra, 0, target); }
void Assembler::cbnz(uint8_t ra, const std::string &target)
{ emitBranch(Opcode::Cbnz, ra, 0, target); }
void Assembler::beq(uint8_t ra, uint8_t rb, const std::string &target)
{ emitBranch(Opcode::Beq, ra, rb, target); }
void Assembler::bne(uint8_t ra, uint8_t rb, const std::string &target)
{ emitBranch(Opcode::Bne, ra, rb, target); }
void Assembler::blt(uint8_t ra, uint8_t rb, const std::string &target)
{ emitBranch(Opcode::Blt, ra, rb, target); }
void Assembler::bge(uint8_t ra, uint8_t rb, const std::string &target)
{ emitBranch(Opcode::Bge, ra, rb, target); }

// --- floating point / SIMD -------------------------------------------------

void Assembler::fadd(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Fadd, fd, fn, fm)); }
void Assembler::fsub(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Fsub, fd, fn, fm)); }
void Assembler::fmul(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Fmul, fd, fn, fm)); }
void Assembler::fdiv(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Fdiv, fd, fn, fm)); }
void Assembler::fsqrt(uint8_t fd, uint8_t fn)
{ emit(encodeR(Opcode::Fsqrt, fd, fn, 0)); }
void Assembler::fmadd(uint8_t fd, uint8_t fn, uint8_t fm, uint8_t fa)
{ emit(encodeR(Opcode::Fmadd, fd, fn, fm, fa)); }
void Assembler::fcvt(uint8_t fd, uint8_t fn)
{ emit(encodeR(Opcode::Fcvt, fd, fn, 0)); }
void Assembler::fmov(uint8_t fd, uint8_t fn)
{ emit(encodeR(Opcode::Fmov, fd, fn, 0)); }
void Assembler::fclt(uint8_t rd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Fclt, rd, fn, fm)); }
void Assembler::vadd(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Vadd, fd, fn, fm)); }
void Assembler::vmul(uint8_t fd, uint8_t fn, uint8_t fm)
{ emit(encodeR(Opcode::Vmul, fd, fn, fm)); }
void Assembler::vfma(uint8_t fd, uint8_t fn, uint8_t fm, uint8_t fa)
{ emit(encodeR(Opcode::Vfma, fd, fn, fm, fa)); }

void Assembler::nop() { emit(encodeNone(Opcode::Nop)); }
void Assembler::halt() { emit(encodeNone(Opcode::Halt)); }

Program
Assembler::finish()
{
    for (const auto &fixup : fixups) {
        auto it = labels.find(fixup.target);
        if (it == labels.end()) {
            fatal("assembler: undefined label '%s' in program '%s'",
                  fixup.target.c_str(), progName.c_str());
        }
        int64_t offset = static_cast<int64_t>(it->second)
            - static_cast<int64_t>(fixup.index);
        uint32_t &word = words[fixup.index];
        if (fixup.format == Format::B26) {
            if (offset < -(1 << 25) || offset >= (1 << 25))
                fatal("assembler: branch offset %lld out of range",
                      static_cast<long long>(offset));
            word |= static_cast<uint32_t>(offset) & 0x3ffffff;
        } else {
            if (offset < -(1 << 15) || offset >= (1 << 15))
                fatal("assembler: cb offset %lld out of range",
                      static_cast<long long>(offset));
            word |= (static_cast<uint32_t>(offset) & 0xffff) << 10;
        }
    }

    Program prog;
    prog.name = progName;
    prog.codeBase = codeBase;
    prog.code = std::move(words);
    if (prog.code.empty() ||
        (prog.code.back() >> 26) != static_cast<uint32_t>(Opcode::Halt)) {
        warn("program '%s' does not end in halt", prog.name.c_str());
    }
    return prog;
}

} // namespace raceval::isa
