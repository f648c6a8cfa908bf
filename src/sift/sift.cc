#include "sift/sift.hh"

#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace raceval::sift
{

namespace
{

const char magic[8] = {'R', 'V', 'S', 'I', 'F', 'T', '0', '1'};

void
putVarint(std::vector<uint8_t> &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

uint64_t
getVarint(const std::vector<uint8_t> &bytes, size_t &cursor)
{
    uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
        RV_ASSERT(cursor < bytes.size(), "sift: truncated varint");
        uint8_t byte = bytes[cursor++];
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
        RV_ASSERT(shift < 64, "sift: varint overflow");
    }
}

uint64_t
zigzagEncode(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1)
        ^ static_cast<uint64_t>(value >> 63);
}

int64_t
zigzagDecode(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

} // namespace

std::vector<uint8_t>
encodeTrace(const isa::Program &prog, vm::TraceSource &source)
{
    source.reset();

    // Record the event stream first so the instruction count is known
    // before the header is laid down.
    std::vector<uint8_t> events;
    uint64_t count = 0;
    uint64_t prev_mem_addr = 0;
    vm::DynInst dyn;
    while (source.next(dyn)) {
        ++count;
        // Deltas wrap modulo 2^64 on both sides of the format, so no
        // address pair can overflow a signed subtraction.
        if (dyn.inst.isLoad || dyn.inst.isStore) {
            putVarint(events, zigzagEncode(static_cast<int64_t>(
                                  dyn.memAddr - prev_mem_addr)));
            prev_mem_addr = dyn.memAddr;
        } else if (dyn.inst.isBranch) {
            events.push_back(dyn.taken ? 1 : 0);
            if (dyn.taken) {
                putVarint(events, zigzagEncode(static_cast<int64_t>(
                                      dyn.nextPc - dyn.pc) / 4));
            }
        }
    }

    std::vector<uint8_t> out(magic, magic + sizeof(magic));
    putVarint(out, prog.name.size());
    out.insert(out.end(), prog.name.begin(), prog.name.end());
    putVarint(out, prog.codeBase);
    putVarint(out, prog.code.size());
    for (uint32_t word : prog.code) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
    putVarint(out, prog.data.size());
    for (const auto &segment : prog.data) {
        putVarint(out, segment.base);
        putVarint(out, segment.bytes.size());
        out.insert(out.end(), segment.bytes.begin(), segment.bytes.end());
    }
    putVarint(out, count);
    out.insert(out.end(), events.begin(), events.end());
    return out;
}

void
writeTrace(const std::string &path, const isa::Program &prog,
           vm::TraceSource &source)
{
    std::vector<uint8_t> bytes = encodeTrace(prog, source);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("sift: cannot open '%s' for writing", path.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (written != bytes.size())
        fatal("sift: short write to '%s'", path.c_str());
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("sift: cannot open '%s' for reading", path.c_str());
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (read != bytes.size())
        fatal("sift: short read from '%s'", path.c_str());
    return bytes;
}

SiftReader::SiftReader(std::vector<uint8_t> buffer)
    : bytes(std::move(buffer))
{
    RV_ASSERT(bytes.size() >= sizeof(magic)
              && std::memcmp(bytes.data(), magic, sizeof(magic)) == 0,
              "sift: bad magic");
    size_t pos = sizeof(magic);

    uint64_t name_len = getVarint(bytes, pos);
    RV_ASSERT(name_len <= bytes.size() - pos, "sift: truncated name");
    prog.name.assign(reinterpret_cast<const char *>(bytes.data() + pos),
                     name_len);
    pos += name_len;

    prog.codeBase = getVarint(bytes, pos);
    uint64_t code_words = getVarint(bytes, pos);
    RV_ASSERT(code_words <= (bytes.size() - pos) / 4,
              "sift: truncated code");
    prog.code.resize(code_words);
    for (uint64_t i = 0; i < code_words; ++i) {
        uint32_t word = 0;
        for (int b = 0; b < 4; ++b)
            word |= static_cast<uint32_t>(bytes[pos++]) << (8 * b);
        prog.code[i] = word;
    }

    uint64_t segments = getVarint(bytes, pos);
    for (uint64_t s = 0; s < segments; ++s) {
        uint64_t base = getVarint(bytes, pos);
        uint64_t len = getVarint(bytes, pos);
        RV_ASSERT(len <= bytes.size() - pos, "sift: truncated data seg");
        prog.addData(base, std::vector<uint8_t>(
            bytes.begin() + static_cast<long>(pos),
            bytes.begin() + static_cast<long>(pos + len)));
        pos += len;
    }

    totalInsts = getVarint(bytes, pos);
    eventStart = pos;

    isa::Decoder decoder;
    decoded.resize(prog.code.size());
    for (size_t i = 0; i < prog.code.size(); ++i) {
        if (!decoder.decode(prog.code[i], decoded[i]))
            fatal("sift: undecodable word 0x%08x in trace '%s'",
                  prog.code[i], prog.name.c_str());
    }
    reset();
}

SiftReader::SiftReader(const std::string &path)
    : SiftReader(readFile(path))
{
}

void
SiftReader::reset()
{
    cursor = eventStart;
    emitted = 0;
    pc = prog.entry();
    prevMemAddr = 0;
}

bool
SiftReader::next(vm::DynInst &out)
{
    if (emitted >= totalInsts)
        return false;

    uint64_t index = (pc - prog.codeBase) / 4;
    RV_ASSERT(pc >= prog.codeBase && index < decoded.size(),
              "sift: replay pc 0x%llx out of range",
              static_cast<unsigned long long>(pc));

    const isa::DecodedInst &inst = decoded[index];
    out.pc = pc;
    out.inst = inst;
    out.memAddr = 0;
    out.taken = false;
    out.nextPc = pc + 4;

    // Deltas apply modulo 2^64 (see encodeTrace): a corrupt delta
    // yields a wild address or pc, never signed overflow.
    if (inst.isLoad || inst.isStore) {
        out.memAddr = prevMemAddr
            + static_cast<uint64_t>(zigzagDecode(getVarint(bytes, cursor)));
        prevMemAddr = out.memAddr;
    } else if (inst.isBranch) {
        RV_ASSERT(cursor < bytes.size(), "sift: truncated branch event");
        out.taken = bytes[cursor++] != 0;
        if (out.taken) {
            out.nextPc = pc
                + 4 * static_cast<uint64_t>(
                      zigzagDecode(getVarint(bytes, cursor)));
        }
    }

    pc = out.nextPc;
    ++emitted;
    return true;
}

} // namespace raceval::sift
