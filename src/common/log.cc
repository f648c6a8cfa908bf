#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

namespace raceval
{

namespace
{

bool quietFlag = false;

/** Minimum severity forwarded to the sink. */
std::atomic<int> minLevel{static_cast<int>(LogLevel::Info)};

/** Guards sink installation/swap only; messages are formatted and
 *  dispatched outside it (a copy of the sink is taken under lock). */
std::mutex sinkMutex;
LogSink customSink;

std::once_flag envOnce;

void
defaultSink(LogLevel level, const std::string &msg)
{
    static const char *prefixes[] = {"debug", "info", "warn", "error"};
    std::fprintf(stderr, "%s: %s\n",
                 prefixes[static_cast<int>(level)], msg.c_str());
}

void
dispatch(LogLevel level, const std::string &msg)
{
    std::call_once(envOnce, [] { applyLogLevelFromEnv(); });
    if (static_cast<int>(level) < minLevel.load(std::memory_order_relaxed))
        return;
    LogSink sink;
    {
        std::lock_guard<std::mutex> lock(sinkMutex);
        sink = customSink;
    }
    if (sink)
        sink(level, msg);
    else
        defaultSink(level, msg);
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

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    customSink = std::move(sink);
}

void
setLogLevel(LogLevel level)
{
    // Make sure a later first log message does not clobber an explicit
    // choice with the environment default.
    std::call_once(envOnce, [] {});
    minLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        minLevel.load(std::memory_order_relaxed));
}

void
applyLogLevelFromEnv()
{
    const char *env = std::getenv("RACEVAL_LOG");
    if (!env || !*env)
        return;
    LogLevel level = LogLevel::Info;
    if (std::strcmp(env, "debug") == 0)
        level = LogLevel::Debug;
    else if (std::strcmp(env, "info") == 0)
        level = LogLevel::Info;
    else if (std::strcmp(env, "warn") == 0)
        level = LogLevel::Warn;
    else if (std::strcmp(env, "error") == 0
             || std::strcmp(env, "quiet") == 0)
        level = LogLevel::Error;
    else {
        std::fprintf(stderr, "warn: RACEVAL_LOG='%s' is not one of "
                     "debug|info|warn|error|quiet; ignored\n", env);
        return;
    }
    minLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

void
logAt(LogLevel level, const char *fmt, ...)
{
    // Deliberately not gated on the legacy quiet flag: setQuiet()
    // silences the warn()/inform() narration, while logAt() callers
    // are filtered by level alone.
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    dispatch(level, msg);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    dispatch(LogLevel::Warn, msg);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    dispatch(LogLevel::Info, msg);
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
