/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors
 * (bad configuration, invalid arguments), warn()/inform() are
 * non-terminating status messages.
 */

#ifndef BP_SUPPORT_LOGGING_H
#define BP_SUPPORT_LOGGING_H

#include <cstdarg>
#include <string>

namespace bp {

/** Print a printf-style message to stderr and abort(); internal bug. */
[[noreturn]] void panic(const char *fmt, ...);

/** Print a printf-style message to stderr and exit(1); user error. */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a non-fatal warning to stderr. */
void warn(const char *fmt, ...);

/** Print an informational message to stderr. */
void inform(const char *fmt, ...);

/**
 * Assert-like check that stays enabled in release builds.
 * Use for invariants whose violation indicates a library bug.
 */
#define BP_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::bp::panic("assertion '%s' failed at %s:%d: " #__VA_ARGS__,  \
                        #cond, __FILE__, __LINE__);                       \
        }                                                                 \
    } while (0)

} // namespace bp

#endif // BP_SUPPORT_LOGGING_H
