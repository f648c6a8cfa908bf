#include "campaign/checkpoint.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/json_writer.hh"
#include "common/log.hh"

namespace raceval::campaign
{

namespace
{

// --------------------------------------------------------------- writing

/** Append a configuration as a JSON array of choice indices. */
void
writeConfig(std::string &out, const tuner::Configuration &config)
{
    out += '[';
    for (size_t i = 0; i < config.size(); ++i)
        out += strprintf("%s%u", i ? "," : "", unsigned{config[i]});
    out += ']';
}

/** Append a double array; jsonDouble (%.17g) round-trips IEEE-754
 *  exactly. */
void
writeDoubles(std::string &out, const std::vector<double> &values)
{
    out += '[';
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += jsonDouble(values[i]);
    }
    out += ']';
}

void
writeEntry(std::string &out, const CheckpointEntry &entry)
{
    out += strprintf("    {\n      \"name\": \"%s\",\n",
                     jsonEscape(entry.name).c_str());
    // The fingerprint is a full 64-bit hash: keep it a hex string so
    // no JSON reader ever rounds it through a double.
    out += strprintf("      \"fingerprint\": \"0x%016" PRIx64 "\",\n",
                     entry.fingerprint);
    out += "      \"best\": ";
    writeConfig(out, entry.result.best);
    out += strprintf(",\n      \"best_mean_cost\": %s,\n",
                     jsonDouble(entry.result.bestMeanCost).c_str());
    out += "      \"best_costs\": ";
    writeDoubles(out, entry.result.bestCosts);
    out += strprintf(",\n      \"experiments_used\": %" PRIu64 ",\n",
                     entry.result.experimentsUsed);
    out += strprintf("      \"iterations\": %u,\n",
                     entry.result.iterations);
    out += "      \"elites\": [";
    for (size_t e = 0; e < entry.result.elites.size(); ++e) {
        out += e ? ",\n        " : "\n        ";
        out += "{\"config\": ";
        writeConfig(out, entry.result.elites[e].first);
        out += strprintf(", \"mean_cost\": %s}",
                         jsonDouble(entry.result.elites[e].second)
                             .c_str());
    }
    out += entry.result.elites.empty() ? "]\n    }" : "\n      ]\n    }";
}

// --------------------------------------------------------------- parsing

/**
 * Minimal JSON value / recursive-descent parser -- just enough for the
 * checkpoint format written above (objects, arrays, strings with
 * backslash escapes, numbers, true/false/null).
 */
struct Json
{
    enum class Kind : uint8_t
    {
        Null, Bool, Number, String, Array, Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    const Json *
    find(const char *key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

/** Deepest object/array nesting the parser accepts (the checkpoint
 *  format needs 6); deeper input fails instead of overflowing the
 *  stack. */
constexpr unsigned maxJsonDepth = 32;

struct Parser
{
    const char *p;
    const char *end;
    bool ok = true;
    unsigned depth = 0;

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n'
                           || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        ok = false;
        return false;
    }

    Json
    parseValue()
    {
        Json out;
        skipWs();
        if (p >= end) {
            ok = false;
            return out;
        }
        switch (*p) {
          case '{':
          case '[': {
            if (++depth > maxJsonDepth) {
                ok = false;
                return out;
            }
            Json nested = *p == '{' ? parseObject() : parseArray();
            --depth;
            return nested;
          }
          case '"': return parseString();
          case 't':
          case 'f':
          case 'n': return parseWord();
          default: return parseNumber();
        }
    }

    Json
    parseObject()
    {
        Json out;
        out.kind = Json::Kind::Object;
        consume('{');
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return out;
        }
        while (ok) {
            Json key = parseString();
            consume(':');
            Json value = parseValue();
            out.object.emplace_back(std::move(key.string),
                                    std::move(value));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            consume('}');
            break;
        }
        return out;
    }

    Json
    parseArray()
    {
        Json out;
        out.kind = Json::Kind::Array;
        consume('[');
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return out;
        }
        while (ok) {
            out.array.push_back(parseValue());
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            consume(']');
            break;
        }
        return out;
    }

    Json
    parseString()
    {
        Json out;
        out.kind = Json::Kind::String;
        if (!consume('"'))
            return out;
        while (p < end && *p != '"') {
            if (*p == '\\' && p + 1 < end)
                ++p;
            out.string += *p++;
        }
        consume('"');
        return out;
    }

    Json
    parseWord()
    {
        Json out;
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
            out.kind = Json::Kind::Bool;
            out.boolean = true;
            p += 4;
        } else if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
            out.kind = Json::Kind::Bool;
            p += 5;
        } else if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
            p += 4;
        } else {
            ok = false;
        }
        return out;
    }

    Json
    parseNumber()
    {
        Json out;
        out.kind = Json::Kind::Number;
        char *after = nullptr;
        out.number = std::strtod(p, &after);
        if (after == p)
            ok = false;
        p = after;
        return out;
    }
};

/** Read an integer field into @p out; false when the value is not a
 *  finite, non-negative, integral number that fits @p T (casting one
 *  that is not would be undefined behaviour). */
template <typename T>
bool
readUnsigned(const Json &json, T &out)
{
    double v = json.number;
    // double(max) + 1 is exact for 16/32-bit T and rounds to 2^64 for
    // uint64_t: either way the first value that does not fit.
    if (json.kind != Json::Kind::Number || !std::isfinite(v) || v < 0.0
        || v != std::floor(v)
        || v >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0)
        return false;
    out = static_cast<T>(v);
    return true;
}

bool
readConfig(const Json &json, tuner::Configuration &config)
{
    if (json.kind != Json::Kind::Array)
        return false;
    config = tuner::Configuration(json.array.size());
    for (size_t i = 0; i < json.array.size(); ++i) {
        if (!readUnsigned(json.array[i], config[i]))
            return false;
    }
    return true;
}

std::vector<double>
readDoubles(const Json &json)
{
    std::vector<double> out;
    out.reserve(json.array.size());
    for (const Json &v : json.array)
        out.push_back(v.number);
    return out;
}

/** Pull one task entry out of its parsed object; false when a
 *  required field is missing, mistyped or out of range. */
bool
readEntry(const Json &json, CheckpointEntry &out)
{
    const Json *name = json.find("name");
    const Json *fp = json.find("fingerprint");
    const Json *best = json.find("best");
    const Json *mean = json.find("best_mean_cost");
    const Json *costs = json.find("best_costs");
    const Json *used = json.find("experiments_used");
    const Json *iters = json.find("iterations");
    const Json *elites = json.find("elites");
    if (!name || name->kind != Json::Kind::String
        || !fp || fp->kind != Json::Kind::String
        || !best || !readConfig(*best, out.result.best)
        || !mean || mean->kind != Json::Kind::Number
        || !costs || costs->kind != Json::Kind::Array
        || !used || !readUnsigned(*used, out.result.experimentsUsed)
        || !iters || !readUnsigned(*iters, out.result.iterations)
        || !elites || elites->kind != Json::Kind::Array)
        return false;

    out.name = name->string;
    out.fingerprint = std::strtoull(fp->string.c_str(), nullptr, 16);
    out.result.bestMeanCost = mean->number;
    out.result.bestCosts = readDoubles(*costs);
    for (const Json &elite : elites->array) {
        const Json *config = elite.find("config");
        const Json *cost = elite.find("mean_cost");
        tuner::Configuration elite_config;
        if (!config || !cost || !readConfig(*config, elite_config))
            return false;
        out.result.elites.emplace_back(std::move(elite_config),
                                       cost->number);
    }
    return true;
}

} // namespace

size_t
saveCheckpoint(const std::string &path,
               const std::vector<CheckpointEntry> &entries)
{
    std::string out = "{\n  \"version\": 1,\n  \"tasks\": [\n";
    for (size_t i = 0; i < entries.size(); ++i) {
        writeEntry(out, entries[i]);
        out += i + 1 < entries.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";

    // Temp file + rename: a crash mid-write leaves the previous
    // checkpoint intact.
    std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "w");
    if (!file) {
        warn("campaign: cannot write checkpoint '%s'", path.c_str());
        return 0;
    }
    bool wrote = std::fwrite(out.data(), 1, out.size(), file)
        == out.size();
    wrote = (std::fclose(file) == 0) && wrote;
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("campaign: failed to finalize checkpoint '%s'",
             path.c_str());
        std::remove(tmp.c_str());
        return 0;
    }
    return entries.size();
}

std::vector<CheckpointEntry>
loadCheckpoint(const std::string &path)
{
    std::vector<CheckpointEntry> out;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return out; // fresh start
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);

    Parser parser{text.data(), text.data() + text.size()};
    Json root = parser.parseValue();
    const Json *tasks =
        parser.ok && root.kind == Json::Kind::Object
            ? root.find("tasks") : nullptr;
    if (!tasks || tasks->kind != Json::Kind::Array) {
        warn("campaign: malformed checkpoint '%s' ignored",
             path.c_str());
        return out;
    }
    for (const Json &task : tasks->array) {
        CheckpointEntry entry;
        if (readEntry(task, entry)) {
            out.push_back(std::move(entry));
        } else {
            warn("campaign: skipping malformed checkpoint entry in "
                 "'%s'", path.c_str());
        }
    }
    return out;
}

} // namespace raceval::campaign
