#include "isa/opcodes.hh"

#include "common/log.hh"

namespace raceval::isa
{

OpClass
opClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Orr:
      case Opcode::Eor:
      case Opcode::Lsl:
      case Opcode::Lsr:
      case Opcode::Asr:
      case Opcode::Addi:
      case Opcode::Subi:
      case Opcode::Andi:
      case Opcode::Orri:
      case Opcode::Eori:
      case Opcode::Lsli:
      case Opcode::Lsri:
      case Opcode::Asri:
      case Opcode::Movz:
      case Opcode::Movk:
        return OpClass::IntAlu;
      case Opcode::Mul:
      case Opcode::Madd:
        return OpClass::IntMul;
      case Opcode::Udiv:
      case Opcode::Sdiv:
        return OpClass::IntDiv;
      case Opcode::Ldr:
      case Opcode::Ldx:
      case Opcode::Ldrf:
        return OpClass::Load;
      case Opcode::Str:
      case Opcode::Stx:
      case Opcode::Strf:
        return OpClass::Store;
      case Opcode::B:
        return OpClass::BranchUncond;
      case Opcode::Bl:
        return OpClass::BranchCall;
      case Opcode::Ret:
        return OpClass::BranchRet;
      case Opcode::Br:
        return OpClass::BranchIndirect;
      case Opcode::Cbz:
      case Opcode::Cbnz:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return OpClass::BranchCond;
      case Opcode::Fadd:
      case Opcode::Fsub:
        return OpClass::FpAdd;
      case Opcode::Fmul:
      case Opcode::Fmadd:
        return OpClass::FpMul;
      case Opcode::Fdiv:
        return OpClass::FpDiv;
      case Opcode::Fsqrt:
        return OpClass::FpSqrt;
      case Opcode::Fcvt:
        return OpClass::FpCvt;
      case Opcode::Fmov:
      case Opcode::Fclt:
        return OpClass::FpMov;
      case Opcode::Vadd:
        return OpClass::SimdAdd;
      case Opcode::Vmul:
      case Opcode::Vfma:
        return OpClass::SimdMul;
      case Opcode::Nop:
        return OpClass::Nop;
      case Opcode::Halt:
        return OpClass::Halt;
      default:
        panic("opClassOf: bad opcode %d", static_cast<int>(op));
    }
}

Format
formatOf(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Orr:
      case Opcode::Eor:
      case Opcode::Lsl:
      case Opcode::Lsr:
      case Opcode::Asr:
      case Opcode::Mul:
      case Opcode::Madd:
      case Opcode::Udiv:
      case Opcode::Sdiv:
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fsqrt:
      case Opcode::Fmadd:
      case Opcode::Fcvt:
      case Opcode::Fmov:
      case Opcode::Fclt:
      case Opcode::Vadd:
      case Opcode::Vmul:
      case Opcode::Vfma:
        return Format::R;
      case Opcode::Addi:
      case Opcode::Subi:
      case Opcode::Andi:
      case Opcode::Orri:
      case Opcode::Eori:
      case Opcode::Lsli:
      case Opcode::Lsri:
      case Opcode::Asri:
        return Format::I;
      case Opcode::Movz:
      case Opcode::Movk:
        return Format::Wide;
      case Opcode::Ldr:
      case Opcode::Str:
      case Opcode::Ldrf:
      case Opcode::Strf:
        return Format::MemImm;
      case Opcode::Ldx:
      case Opcode::Stx:
        return Format::MemReg;
      case Opcode::B:
      case Opcode::Bl:
        return Format::B26;
      case Opcode::Cbz:
      case Opcode::Cbnz:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return Format::CB;
      case Opcode::Ret:
      case Opcode::Br:
        return Format::RJump;
      case Opcode::Nop:
      case Opcode::Halt:
        return Format::None;
      default:
        panic("formatOf: bad opcode %d", static_cast<int>(op));
    }
}

const char *
opcodeName(Opcode op)
{
    static const char *names[] = {
        "add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr",
        "mul", "madd", "udiv", "sdiv",
        "addi", "subi", "andi", "orri", "eori", "lsli", "lsri", "asri",
        "movz", "movk",
        "ldr", "str", "ldx", "stx", "ldrf", "strf",
        "b", "bl", "ret", "br", "cbz", "cbnz", "beq", "bne", "blt", "bge",
        "fadd", "fsub", "fmul", "fdiv", "fsqrt", "fmadd", "fcvt", "fmov",
        "fclt",
        "vadd", "vmul", "vfma",
        "nop", "halt",
    };
    static_assert(sizeof(names) / sizeof(names[0]) == numOpcodes,
                  "opcode name table out of sync");
    size_t idx = static_cast<size_t>(op);
    RV_ASSERT(idx < numOpcodes, "opcodeName: bad opcode %zu", idx);
    return names[idx];
}

const char *
opClassName(OpClass cls)
{
    static const char *names[] = {
        "IntAlu", "IntMul", "IntDiv",
        "FpAdd", "FpMul", "FpDiv", "FpSqrt", "FpCvt", "FpMov",
        "SimdAdd", "SimdMul",
        "Load", "Store",
        "BranchCond", "BranchUncond", "BranchIndirect", "BranchCall",
        "BranchRet",
        "Nop", "Halt",
    };
    static_assert(sizeof(names) / sizeof(names[0]) == numOpClasses,
                  "opclass name table out of sync");
    size_t idx = static_cast<size_t>(cls);
    RV_ASSERT(idx < numOpClasses, "opClassName: bad class %zu", idx);
    return names[idx];
}

bool
isBranchClass(OpClass cls)
{
    switch (cls) {
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::BranchIndirect:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return true;
      default:
        return false;
    }
}

bool
isFpClass(OpClass cls)
{
    switch (cls) {
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
      case OpClass::FpCvt:
      case OpClass::FpMov:
      case OpClass::SimdAdd:
      case OpClass::SimdMul:
        return true;
      default:
        return false;
    }
}

std::string
regName(uint8_t flat_reg)
{
    if (flat_reg == noReg)
        return "-";
    if (flat_reg == regZero)
        return "xzr";
    if (flat_reg < numIntRegs)
        return strprintf("x%d", flat_reg);
    if (flat_reg < fpRegBase + numFpRegs)
        return strprintf("d%d", flat_reg - fpRegBase);
    return strprintf("?%d", flat_reg);
}

} // namespace raceval::isa
