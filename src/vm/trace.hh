/**
 * @file
 * The dynamic instruction stream interface consumed by every timing
 * model (abstract Sniper-like cores and the detailed hardware stand-in
 * alike), and produced by the functional core or a packed trace replay.
 */

#ifndef RACEVAL_VM_TRACE_HH
#define RACEVAL_VM_TRACE_HH

#include <cstdint>
#include <string>

#include "isa/decoder.hh"
#include "isa/program.hh"

namespace raceval::vm
{

/**
 * One dynamically executed instruction: static decode plus the dynamic
 * facts (effective address, branch outcome) the timing models need.
 */
struct DynInst
{
    uint64_t pc = 0;
    isa::DecodedInst inst;
    /** Effective address for loads/stores (undefined otherwise). */
    uint64_t memAddr = 0;
    /** Address of the next executed instruction. */
    uint64_t nextPc = 0;
    /** For branches: true when redirected away from pc + 4. */
    bool taken = false;
};

/**
 * A restartable stream of dynamic instructions.
 *
 * Timing models pull from this interface, which makes them agnostic to
 * whether the stream comes from live functional execution (the
 * DynamoRIO-style front-end) or a recorded trace (replay many times,
 * as the paper does on its x86 servers).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction.
     *
     * @param[out] out next dynamic instruction.
     * @return false at end of trace.
     */
    virtual bool next(DynInst &out) = 0;

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** @return stream name (benchmark name). */
    virtual const std::string &name() const = 0;

    /**
     * @return the program image behind the stream when known (used by
     * the detailed hardware model to distinguish initialized pages
     * from first-touch zero pages), else nullptr.
     */
    virtual const isa::Program *program() const { return nullptr; }
};

} // namespace raceval::vm

#endif // RACEVAL_VM_TRACE_HH
