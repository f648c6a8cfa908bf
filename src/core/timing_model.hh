/**
 * @file
 * The timing-model families: one polymorphic seam between "a tunable
 * core model family" and everything that consumes simulation results.
 *
 * The paper tunes Sniper, which ships several interchangeable core
 * models behind one configuration surface. This reproduction mirrors
 * that: every family (in-order, out-of-order, interval) constructs
 * from the same CoreParams, replays the same dynamic traces, and emits
 * the same CoreStats -- so the validation flow, the evaluation engine,
 * the campaign orchestrator and the drivers select a family by tag
 * instead of naming concrete core classes. The families form a fixed
 * table (modelFamilies()); adding one is a new enum value, a table row
 * and a makeTimingModel() case.
 */

#ifndef RACEVAL_CORE_TIMING_MODEL_HH
#define RACEVAL_CORE_TIMING_MODEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/params.hh"
#include "core/stats.hh"
#include "vm/packed_trace.hh"
#include "vm/trace.hh"

namespace raceval::core
{

/** The built-in tunable core-model families. */
enum class ModelFamily : uint8_t
{
    InOrder,  //!< A53-class stall-on-use cycle accounting
    Ooo,      //!< A72-class windowed out-of-order accounting
    Interval  //!< Sniper-style interval core (miss/mispredict windows)
};

constexpr size_t numModelFamilies = 3;

/**
 * Abstract timing model: construct from CoreParams, replay a dynamic
 * instruction stream, emit CoreStats. Implementations must be
 * deterministic -- identical (params, trace) pairs produce identical
 * stats -- because the evaluation engine caches results by content.
 */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    /** Simulate one full trace from a clean machine state. */
    virtual CoreStats run(vm::TraceSource &source) = 0;

    /**
     * Replay a packed trace from a clean machine state. Bit-identical
     * to run(TraceSource&) over the same recording.
     */
    virtual CoreStats run(const vm::PackedTrace &trace) = 0;

    /** @return the active configuration. */
    virtual const CoreParams &params() const = 0;
};

/** Identity of one model family: one row of modelFamilies(). */
struct ModelFamilyInfo
{
    ModelFamily family;
    const char *name;        //!< stable CLI/report tag
    const char *description; //!< one-line --list blurb
    /**
     * Cache-key salt folded into every engine fingerprint of an
     * evaluation run under this family. CoreParams content carries no
     * family distinction (the same struct configures every model), so
     * without this salt a shared or persisted EvalCache would alias
     * results across families. Distinct per family and stable across
     * versions (persisted caches depend on it).
     */
    uint64_t fingerprintSalt;
};

/** @return the fixed family table, indexed by ModelFamily. */
const std::array<ModelFamilyInfo, numModelFamilies> &modelFamilies();

/** Construct a timing model of a family. */
std::unique_ptr<TimingModel> makeTimingModel(ModelFamily family,
                                             const CoreParams &params);

/** @return the stable display/CLI name of a family. */
const char *modelFamilyName(ModelFamily family);

/** @return the family's engine cache-key salt. */
uint64_t modelFamilySalt(ModelFamily family);

/**
 * Parse a family name ("inorder" / "ooo" / "interval").
 *
 * @param[out] out the parsed tag (untouched on failure).
 * @return true when @p name names a family.
 */
bool parseModelFamily(const std::string &name, ModelFamily &out);

} // namespace raceval::core

#endif // RACEVAL_CORE_TIMING_MODEL_HH
