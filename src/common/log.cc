#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace raceval
{

namespace
{

bool quietFlag = false;

/** Print one "<kind>: <message>" line to stderr. */
void
report(const char *kind, const char *fmt, va_list args)
{
    std::string msg = vstrprintf(fmt, args);
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
}

} // namespace

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrprintf(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    report("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    report("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    report("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    report("info", fmt, args);
    va_end(args);
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
quiet()
{
    return quietFlag;
}

} // namespace raceval
