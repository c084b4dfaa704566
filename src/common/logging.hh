/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  -- internal invariant violated (a gllc bug); aborts.
 * fatal()  -- unusable user configuration; exits with status 1.
 * warn()   -- something questionable but survivable.
 * note()   -- untagged diagnostic line (multi-line reports).
 */

#ifndef GLLC_COMMON_LOGGING_HH
#define GLLC_COMMON_LOGGING_HH

#include <cstdarg>

namespace gllc
{

/** Abort with a formatted message; use for internal invariant failures. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for bad user configuration. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Print one untagged line to stderr.  For the bodies of structured
 * multi-line reports (audit aborts, decision-log dumps) where a
 * "warn:" prefix on every line would be noise; gllc_lint bans
 * raw fprintf(stderr, ...) outside the logging/progress layers, so
 * this is the sanctioned way to emit such lines.
 */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert-like check for invariants whose violation would silently
 * corrupt results.  Active by default in every build type (the
 * repo's bare-assert replacement: gllc_lint rejects <cassert>'s
 * assert()); configuring with -DGLLC_ASSERTS=OFF compiles both
 * macros to a no-op that still odr-uses its operands inside a dead
 * branch, so release builds raise no -Wunused-* warnings for
 * variables referenced only by assertions and the conditions keep
 * compiling.
 */
#ifdef GLLC_DISABLE_ASSERTS

#define GLLC_ASSERT(cond)                                               \
    do {                                                                \
        if (false && !(cond))                                           \
            ::gllc::panic("unreachable");                               \
    } while (0)

/** GLLC_ASSERT with an extra printf-style explanation. */
#define GLLC_ASSERT_MSG(cond, ...)                                      \
    do {                                                                \
        if (false && !(cond))                                           \
            ::gllc::warn(__VA_ARGS__);                                  \
    } while (0)

#else

#define GLLC_ASSERT(cond)                                               \
    do {                                                                \
        if (!(cond))                                                    \
            ::gllc::panic("assertion failed: %s (%s:%d)",               \
                          #cond, __FILE__, __LINE__);                   \
    } while (0)

/** GLLC_ASSERT with an extra printf-style explanation. */
#define GLLC_ASSERT_MSG(cond, ...)                                      \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::gllc::warn(__VA_ARGS__);                                  \
            ::gllc::panic("assertion failed: %s (%s:%d)",               \
                          #cond, __FILE__, __LINE__);                   \
        }                                                               \
    } while (0)

#endif // GLLC_DISABLE_ASSERTS

} // namespace gllc

#endif // GLLC_COMMON_LOGGING_HH
