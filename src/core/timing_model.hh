/**
 * @file
 * The timing-model registry: one polymorphic seam between "a tunable
 * core model family" and everything that consumes simulation results.
 *
 * The paper tunes Sniper, which ships several interchangeable core
 * models behind one configuration surface. This reproduction mirrors
 * that: every family (in-order, out-of-order, interval) constructs
 * from the same CoreParams, replays the same dynamic traces, and emits
 * the same CoreStats -- so the validation flow, the evaluation engine,
 * the campaign orchestrator and the drivers select a family by tag
 * instead of naming concrete core classes. New families register a
 * factory and become raceable without touching any consumer.
 */

#ifndef RACEVAL_CORE_TIMING_MODEL_HH
#define RACEVAL_CORE_TIMING_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/** Factory signature of one registered family. */
using TimingModelFactory =
    std::unique_ptr<TimingModel> (*)(const CoreParams &params);

/** Registry entry: identity + construction of one model family. */
struct TimingModelInfo
{
    ModelFamily family = ModelFamily::InOrder;
    const char *name = "";        //!< stable CLI/report tag
    const char *description = ""; //!< one-line --list blurb
    /**
     * Cache-key salt folded into every engine fingerprint of an
     * evaluation run under this family. CoreParams content carries no
     * family distinction (the same struct configures every model), so
     * without this salt a shared or persisted EvalCache would alias
     * results across families. Must be distinct per family and stable
     * across versions (persisted caches depend on it).
     */
    uint64_t fingerprintSalt = 0;
    TimingModelFactory make = nullptr;
};

/**
 * Declaration-ordered family registry. The three built-in families are
 * pre-registered; registerFamily() is the extension point for
 * out-of-tree models (they reuse one of the ModelFamily tags only if
 * they replace it, so extensions normally just add new entries looked
 * up by name).
 */
class TimingModelRegistry
{
  public:
    /** @return the process-wide registry. */
    static TimingModelRegistry &instance();

    /** @return the entry for a built-in family tag. */
    const TimingModelInfo &info(ModelFamily family) const;

    /** @return the entry named @p name, or nullptr when unknown. */
    const TimingModelInfo *find(const std::string &name) const;

    /** @return all registered families, declaration order. */
    const std::vector<TimingModelInfo> &all() const { return entries; }

    /** Register a family (fatal on duplicate name or salt). */
    void registerFamily(const TimingModelInfo &info);

  private:
    TimingModelRegistry();
    std::vector<TimingModelInfo> entries;
};

/** Construct a timing model of a family (through the registry). */
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
 * @return true when @p name names a registered family.
 */
bool parseModelFamily(const std::string &name, ModelFamily &out);

} // namespace raceval::core

#endif // RACEVAL_CORE_TIMING_MODEL_HH
