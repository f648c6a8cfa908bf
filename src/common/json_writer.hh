/**
 * @file
 * One shared JSON emitter for every machine-readable blob the library
 * writes: the bench drivers' --json results, EngineStats::json(),
 * CampaignStats::json(), the obs metrics snapshots and the Chrome
 * trace files.
 *
 * Before this existed, each of those call sites hand-rolled its own
 * strprintf JSON with its own escaping bugs and its own double
 * precision; this writer gives them one comma/nesting discipline and
 * one number format. Doubles are always emitted with %.17g, which
 * round-trips IEEE-754 exactly (the same contract the campaign
 * checkpoint relies on); non-finite doubles become null, since JSON
 * has no spelling for them.
 */

#ifndef RACEVAL_COMMON_JSON_WRITER_HH
#define RACEVAL_COMMON_JSON_WRITER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace raceval
{

/** @return @p in with JSON string metacharacters escaped. */
std::string jsonEscape(const std::string &in);

/** @return @p value formatted as a JSON number: %.17g, or "null" when
 *  non-finite. */
std::string jsonDouble(double value);

/**
 * Streaming JSON writer building into a string.
 *
 * Commas and (in pretty mode) indentation are inserted automatically;
 * keys are escaped; begin/end calls must balance -- str() asserts it.
 * Not thread-safe; build per thread and splice with rawField().
 */
class JsonWriter
{
  public:
    /** @param pretty newline + two-space indentation per level
     *  (compact single-line output otherwise). */
    explicit JsonWriter(bool pretty = false) : prettyMode(pretty) {}

    /// @name Containers
    /// @{
    JsonWriter &beginObject();                //!< value position
    JsonWriter &beginObject(const char *key); //!< member position
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &beginArray(const char *key);
    JsonWriter &endArray();
    /// @}

    /// @name Object members
    /// @{
    JsonWriter &field(const char *key, double value);
    JsonWriter &field(const char *key, uint64_t value);
    JsonWriter &field(const char *key, int64_t value);
    JsonWriter &field(const char *key, unsigned value);
    JsonWriter &field(const char *key, const std::string &value);
    JsonWriter &field(const char *key, const char *value);
    JsonWriter &field(const char *key, bool value);
    /** Splice pre-rendered JSON (e.g. a nested json() result). */
    JsonWriter &rawField(const char *key, const std::string &json);
    /// @}

    /// @name Array elements
    /// @{
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(const std::string &v);
    /// @}

    /** @return the finished document (asserts balanced nesting). */
    const std::string &str() const;

  private:
    /** Comma/indent bookkeeping before a value or key is emitted. */
    void preValue();
    void key(const char *k);
    void indent();

    struct Level
    {
        bool array = false;
        size_t count = 0;
    };

    bool prettyMode;
    std::string out;
    std::vector<Level> stack;
};

} // namespace raceval

#endif // RACEVAL_COMMON_JSON_WRITER_HH
