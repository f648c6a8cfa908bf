/**
 * @file
 * Status and error reporting, following the gem5 logging discipline:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * user errors the simulation cannot continue from, warn()/inform() for
 * non-fatal status messages. Every message is one "<kind>: <text>"
 * line on stderr; setQuiet() silences warn()/inform(), never
 * panic()/fatal().
 */

#ifndef RACEVAL_COMMON_LOG_HH
#define RACEVAL_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace raceval
{

/**
 * Printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list flavour of strprintf(). */
std::string vstrprintf(const char *fmt, va_list args);

/**
 * Report an internal invariant violation and abort().
 *
 * Use for conditions that can never happen unless the library itself is
 * broken, regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and exit(1).
 *
 * Use for bad configurations or invalid arguments: the user's fault, not a
 * library bug.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition ("warn: ..."). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status ("info: ..."). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by benches for clean
 *  tables). */
void setQuiet(bool quiet);

/** @return true when warn()/inform() are suppressed. */
bool quiet();

/**
 * panic() unless the condition holds.
 *
 * Cheap enough to keep enabled in release builds; used to guard model
 * invariants throughout the library.
 */
#define RV_ASSERT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::raceval::panic("assertion '%s' failed at %s:%d: %s",      \
                             #cond, __FILE__, __LINE__,                 \
                             ::raceval::strprintf(__VA_ARGS__).c_str());\
        }                                                               \
    } while (0)

} // namespace raceval

#endif // RACEVAL_COMMON_LOG_HH
