/**
 * @file
 * SIFT-like binary instruction trace format (record once, replay many).
 *
 * Mirrors the Sniper Instruction Trace Format workflow from the paper:
 * the front-end (functional core, standing in for DynamoRIO on the ARM
 * board) records a trace once; timing simulations replay it any number
 * of times, possibly on a different machine. The format embeds the
 * static program image and stores only the dynamic facts (memory
 * addresses, branch outcomes) as zigzag-varint deltas, so traces stay
 * compact.
 *
 * Layout (little-endian):
 *   magic "RVSIFT01"
 *   varint nameLen, name bytes
 *   varint codeBase, varint codeWords, raw 4-byte words
 *   varint dataSegments, each: varint base, varint len, raw bytes
 *   varint instCount
 *   event bytes (per instruction, in execution order):
 *     load/store: zigzag varint (memAddr - prevMemAddr)
 *     branch:     byte 0|1 (taken); if taken zigzag varint
 *                 (target - pc) / 4
 *     other:      nothing
 *
 * Inside the simulator the TraceBank records straight into the packed
 * form (vm::PackedTrace); sift is the on-disk interchange format, read
 * back by SiftReader.
 */

#ifndef RACEVAL_SIFT_SIFT_HH
#define RACEVAL_SIFT_SIFT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "vm/trace.hh"

namespace raceval::sift
{

/**
 * Encode a full trace into a byte buffer.
 *
 * Drains the source to completion (the source is reset() first so the
 * recording always starts from the beginning).
 *
 * @param prog the program the source executes (embedded in the trace).
 * @param source dynamic stream to record.
 * @return the encoded trace bytes.
 */
std::vector<uint8_t> encodeTrace(const isa::Program &prog,
                                 vm::TraceSource &source);

/** Encode and write to a file; fatal() on I/O failure. */
void writeTrace(const std::string &path, const isa::Program &prog,
                vm::TraceSource &source);

/** Read a whole file into memory; fatal() on I/O failure. */
std::vector<uint8_t> readFile(const std::string &path);

/**
 * Replays a recorded trace as a TraceSource.
 *
 * Parses the header once and re-decodes the embedded program with its
 * own Decoder -- just like Sniper's back-end re-decoding SIFT input
 * through Capstone. Corrupt input ends in a "sift:" panic, never in
 * undefined behaviour.
 */
class SiftReader final : public vm::TraceSource
{
  public:
    /** Construct from encoded bytes (takes ownership of the buffer). */
    explicit SiftReader(std::vector<uint8_t> buffer);

    /** Construct by reading a trace file. */
    explicit SiftReader(const std::string &path);

    bool next(vm::DynInst &out) override;
    void reset() override;
    const std::string &name() const override { return prog.name; }
    const isa::Program *program() const override { return &prog; }

    /** @return total instructions in the trace. */
    uint64_t instCount() const { return totalInsts; }

  private:
    std::vector<uint8_t> bytes;
    isa::Program prog;
    std::vector<isa::DecodedInst> decoded;
    uint64_t totalInsts = 0;
    size_t eventStart = 0; //!< byte offset of the event stream

    size_t cursor = 0;    //!< current byte offset in the event stream
    uint64_t emitted = 0; //!< instructions emitted so far
    uint64_t pc = 0;
    uint64_t prevMemAddr = 0;
};

} // namespace raceval::sift

#endif // RACEVAL_SIFT_SIFT_HH
