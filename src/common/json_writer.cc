#include "common/json_writer.hh"

#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace raceval
{

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x",
                                 static_cast<unsigned char>(c));
            else
                out.push_back(c);
        }
    }
    return out;
}

std::string
jsonDouble(double value)
{
    if (!std::isfinite(value))
        return "null";
    return strprintf("%.17g", value);
}

void
JsonWriter::indent()
{
    out.push_back('\n');
    out.append(2 * stack.size(), ' ');
}

void
JsonWriter::preValue()
{
    if (stack.empty())
        return;
    if (stack.back().count++)
        out.push_back(',');
    if (prettyMode && stack.back().array)
        indent();
    else if (stack.back().array && stack.back().count > 1)
        out.push_back(' ');
}

void
JsonWriter::key(const char *k)
{
    RV_ASSERT(!stack.empty() && !stack.back().array,
              "json writer: member '%s' outside an object", k);
    if (stack.back().count++)
        out.push_back(',');
    if (prettyMode)
        indent();
    else if (stack.back().count > 1)
        out.push_back(' ');
    out += strprintf("\"%s\": ", jsonEscape(k).c_str());
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    out.push_back('{');
    stack.push_back(Level{false, 0});
    return *this;
}

JsonWriter &
JsonWriter::beginObject(const char *k)
{
    key(k);
    out.push_back('{');
    stack.push_back(Level{false, 0});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    RV_ASSERT(!stack.empty() && !stack.back().array,
              "json writer: endObject() without beginObject()");
    bool had_members = stack.back().count > 0;
    stack.pop_back();
    if (prettyMode && had_members)
        indent();
    out.push_back('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    out.push_back('[');
    stack.push_back(Level{true, 0});
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const char *k)
{
    key(k);
    out.push_back('[');
    stack.push_back(Level{true, 0});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    RV_ASSERT(!stack.empty() && stack.back().array,
              "json writer: endArray() without beginArray()");
    bool had_elements = stack.back().count > 0;
    stack.pop_back();
    if (prettyMode && had_elements)
        indent();
    out.push_back(']');
    return *this;
}

JsonWriter &
JsonWriter::field(const char *k, double v)
{
    key(k);
    out += jsonDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::field(const char *k, uint64_t v)
{
    key(k);
    out += strprintf("%llu", static_cast<unsigned long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::field(const char *k, int64_t v)
{
    key(k);
    out += strprintf("%lld", static_cast<long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::field(const char *k, unsigned v)
{
    return field(k, static_cast<uint64_t>(v));
}

JsonWriter &
JsonWriter::field(const char *k, const std::string &v)
{
    key(k);
    out += strprintf("\"%s\"", jsonEscape(v).c_str());
    return *this;
}

JsonWriter &
JsonWriter::field(const char *k, const char *v)
{
    return field(k, std::string(v));
}

JsonWriter &
JsonWriter::field(const char *k, bool v)
{
    key(k);
    out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::rawField(const char *k, const std::string &json)
{
    key(k);
    out += json;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    out += jsonDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    preValue();
    out += strprintf("%llu", static_cast<unsigned long long>(v));
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    out += strprintf("\"%s\"", jsonEscape(v).c_str());
    return *this;
}

const std::string &
JsonWriter::str() const
{
    RV_ASSERT(stack.empty(),
              "json writer: %zu unterminated containers", stack.size());
    return out;
}

} // namespace raceval
