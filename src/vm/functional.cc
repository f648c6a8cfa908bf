#include "vm/functional.hh"

#include <cmath>

#include "common/log.hh"

namespace raceval::vm
{

using isa::Opcode;

FunctionalCore::FunctionalCore(const isa::Program &program,
                               isa::DecoderOptions exposed_decoder_options,
                               uint64_t max_insts)
    : prog(program), pc(0), instCount(0), maxInsts(max_insts),
      halted(false)
{
    isa::Decoder semantic_decoder;
    isa::Decoder exposed_decoder(exposed_decoder_options);
    code.resize(prog.code.size());
    for (size_t i = 0; i < prog.code.size(); ++i) {
        uint32_t word = prog.code[i];
        isa::DecodedInst semantic;
        if (!semantic_decoder.decode(word, semantic))
            fatal("program '%s': undecodable word 0x%08x at index %zu",
                  prog.name.c_str(), word, i);
        StaticInst &si = code[i];
        exposed_decoder.decode(word, si.exposed);
        si.imm = semantic.imm;
        si.op = semantic.op;
        si.f0 = word & 0x1f;
        si.f1 = (word >> 5) & 0x1f;
        si.f2 = (word >> 10) & 0x1f;
        si.f3 = (word >> 15) & 0x1f;
        si.hw = semantic.hw;
        si.memSize = semantic.memSize;
    }
    reset();
}

void
FunctionalCore::loadImage()
{
    mem.clear();
    for (const auto &segment : prog.data)
        mem.load(segment.base, segment.bytes.data(), segment.bytes.size());
}

void
FunctionalCore::reset()
{
    regFile = RegFile{};
    loadImage();
    pc = prog.entry();
    instCount = 0;
    halted = false;
}

bool
FunctionalCore::next(DynInst &out)
{
    if (halted)
        return false;
    if (instCount >= maxInsts) {
        warn("program '%s': max instruction budget %llu hit, truncating",
             prog.name.c_str(),
             static_cast<unsigned long long>(maxInsts));
        halted = true;
        return false;
    }

    uint64_t index = (pc - prog.codeBase) / 4;
    RV_ASSERT(pc >= prog.codeBase && index < code.size(),
              "program '%s': pc 0x%llx out of code range",
              prog.name.c_str(), static_cast<unsigned long long>(pc));

    const StaticInst &inst = code[index];
    // x31 reads zero: it is zeroed after every instruction, so a write
    // to it lasts only until then.
    uint64_t *x = regFile.x;
    double *d = regFile.d;
    uint64_t next_pc = pc + 4;
    uint64_t mem_addr = 0;
    bool taken = false;

    auto branch_to = [&](int64_t off_insts) {
        next_pc = pc + static_cast<uint64_t>(off_insts * 4);
        taken = true;
    };

    const uint8_t f0 = inst.f0, f1 = inst.f1, f2 = inst.f2, f3 = inst.f3;

    switch (inst.op) {
      case Opcode::Add: x[f0] = x[f1] + x[f2]; break;
      case Opcode::Sub: x[f0] = x[f1] - x[f2]; break;
      case Opcode::And: x[f0] = x[f1] & x[f2]; break;
      case Opcode::Orr: x[f0] = x[f1] | x[f2]; break;
      case Opcode::Eor: x[f0] = x[f1] ^ x[f2]; break;
      case Opcode::Lsl:
        x[f0] = x[f1] << (x[f2] & 63);
        break;
      case Opcode::Lsr:
        x[f0] = x[f1] >> (x[f2] & 63);
        break;
      case Opcode::Asr:
        x[f0] = static_cast<uint64_t>(
            static_cast<int64_t>(x[f1]) >> (x[f2] & 63));
        break;
      case Opcode::Mul: x[f0] = x[f1] * x[f2]; break;
      case Opcode::Madd:
        x[f0] = x[f1] * x[f2] + x[f3];
        break;
      case Opcode::Udiv:
        x[f0] = x[f2] == 0 ? 0 : x[f1] / x[f2];
        break;
      case Opcode::Sdiv: {
        int64_t den = static_cast<int64_t>(x[f2]);
        int64_t num = static_cast<int64_t>(x[f1]);
        x[f0] = den == 0 ? 0 : static_cast<uint64_t>(num / den);
        break;
      }
      case Opcode::Addi:
        x[f0] = x[f1] + static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Subi:
        x[f0] = x[f1] - static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Andi:
        x[f0] = x[f1] & static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Orri:
        x[f0] = x[f1] | static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Eori:
        x[f0] = x[f1] ^ static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::Lsli:
        x[f0] = x[f1] << (inst.imm & 63);
        break;
      case Opcode::Lsri:
        x[f0] = x[f1] >> (inst.imm & 63);
        break;
      case Opcode::Asri:
        x[f0] = static_cast<uint64_t>(
            static_cast<int64_t>(x[f1]) >> (inst.imm & 63));
        break;
      case Opcode::Movz:
        x[f0] = static_cast<uint64_t>(inst.imm) << (16 * inst.hw);
        break;
      case Opcode::Movk: {
        uint64_t mask = 0xffffull << (16 * inst.hw);
        x[f0] = (x[f0] & ~mask)
                 | (static_cast<uint64_t>(inst.imm) << (16 * inst.hw));
        break;
      }

      case Opcode::Ldr:
        mem_addr = x[f1] + static_cast<uint64_t>(inst.imm);
        x[f0] = mem.read(mem_addr, inst.memSize);
        break;
      case Opcode::Str:
        mem_addr = x[f1] + static_cast<uint64_t>(inst.imm);
        mem.write(mem_addr, inst.memSize, x[f0]);
        break;
      case Opcode::Ldx:
        mem_addr = x[f1] + x[f2];
        x[f0] = mem.read(mem_addr, inst.memSize);
        break;
      case Opcode::Stx:
        mem_addr = x[f1] + x[f2];
        mem.write(mem_addr, inst.memSize, x[f0]);
        break;
      case Opcode::Ldrf:
        mem_addr = x[f1] + static_cast<uint64_t>(inst.imm);
        d[f0] = inst.memSize == 4 ? mem.readFloat(mem_addr)
                                    : mem.readDouble(mem_addr);
        break;
      case Opcode::Strf:
        mem_addr = x[f1] + static_cast<uint64_t>(inst.imm);
        if (inst.memSize == 4)
            mem.writeFloat(mem_addr, d[f0]);
        else
            mem.writeDouble(mem_addr, d[f0]);
        break;

      case Opcode::B:
        branch_to(inst.imm);
        break;
      case Opcode::Bl:
        x[isa::regLink] = pc + 4;
        branch_to(inst.imm);
        break;
      case Opcode::Ret:
      case Opcode::Br:
        next_pc = x[f1];
        taken = true;
        break;
      case Opcode::Cbz:
        if (x[f0] == 0)
            branch_to(inst.imm);
        break;
      case Opcode::Cbnz:
        if (x[f0] != 0)
            branch_to(inst.imm);
        break;
      case Opcode::Beq:
        if (x[f0] == x[f1])
            branch_to(inst.imm);
        break;
      case Opcode::Bne:
        if (x[f0] != x[f1])
            branch_to(inst.imm);
        break;
      case Opcode::Blt:
        if (static_cast<int64_t>(x[f0])
            < static_cast<int64_t>(x[f1]))
            branch_to(inst.imm);
        break;
      case Opcode::Bge:
        if (static_cast<int64_t>(x[f0])
            >= static_cast<int64_t>(x[f1]))
            branch_to(inst.imm);
        break;

      case Opcode::Fadd: d[f0] = d[f1] + d[f2]; break;
      case Opcode::Fsub: d[f0] = d[f1] - d[f2]; break;
      case Opcode::Fmul: d[f0] = d[f1] * d[f2]; break;
      case Opcode::Fdiv:
        d[f0] = d[f2] == 0.0 ? 0.0 : d[f1] / d[f2];
        break;
      case Opcode::Fsqrt:
        d[f0] = std::sqrt(std::fabs(d[f1]));
        break;
      case Opcode::Fmadd:
        d[f0] = d[f1] * d[f2] + d[f3];
        break;
      case Opcode::Fcvt:
        d[f0] = static_cast<double>(static_cast<float>(d[f1]));
        break;
      case Opcode::Fmov: d[f0] = d[f1]; break;
      case Opcode::Fclt:
        x[f0] = d[f1] < d[f2] ? 1 : 0;
        break;
      // SIMD classes share scalar semantics; only timing differs.
      case Opcode::Vadd: d[f0] = d[f1] + d[f2]; break;
      case Opcode::Vmul: d[f0] = d[f1] * d[f2]; break;
      case Opcode::Vfma:
        d[f0] = d[f1] * d[f2] + d[f3];
        break;

      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted = true;
        break;
      default:
        panic("functional core: unhandled opcode %d",
              static_cast<int>(inst.op));
    }

    x[isa::regZero] = 0;

    out.pc = pc;
    out.inst = inst.exposed;
    out.memAddr = mem_addr;
    out.nextPc = next_pc;
    out.taken = taken;

    pc = next_pc;
    ++instCount;
    return true;
}

uint64_t
FunctionalCore::run()
{
    DynInst scratch;
    while (next(scratch)) {
    }
    return instCount;
}

} // namespace raceval::vm
