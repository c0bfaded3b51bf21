/**
 * @file
 * Status-message and error-reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (a bug in apir itself);
 * fatal() is for user errors (bad configuration, malformed input) from
 * which the program cannot continue. warn()/inform() report conditions
 * without stopping execution.
 */

#ifndef APIR_SUPPORT_LOGGING_HH
#define APIR_SUPPORT_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace apir {

/**
 * What fatal() raises inside a ScopedFatalThrows region instead of
 * exiting the process. Carries the fully formatted diagnostic (the
 * same text fatal() would have printed).
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/**
 * While an instance is live on the current thread, fatal() throws
 * FatalError instead of printing and exiting. Long-running services
 * (apird) wrap request handling in one of these so a malformed knob,
 * bad scenario file, or failed verification coming in over the wire
 * becomes an error *response*, not daemon death. Nests; thread-local,
 * so one request's guard never changes another thread's behavior.
 * panic() / APIR_ASSERT are unaffected — an internal invariant
 * violation still aborts, even mid-request.
 */
class ScopedFatalThrows
{
  public:
    ScopedFatalThrows();
    ~ScopedFatalThrows();
    ScopedFatalThrows(const ScopedFatalThrows &) = delete;
    ScopedFatalThrows &operator=(const ScopedFatalThrows &) = delete;
};

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail {

/** Emit a formatted message; aborts or exits for Fatal/Panic. */
[[noreturn]] void logAndDie(LogLevel level, const std::string &where,
                            const std::string &msg);

void logMessage(LogLevel level, const std::string &msg);

/** Stringify a parameter pack by streaming every argument. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Report an internal invariant violation and abort. Use only for
 * conditions that indicate a bug in apir regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::logAndDie(LogLevel::Panic, "",
                      detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user error (bad configuration or input) and
 * exit with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::logAndDie(LogLevel::Fatal, "",
                      detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logMessage(LogLevel::Warn,
                       detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::logMessage(LogLevel::Inform,
                       detail::concat(std::forward<Args>(args)...));
}

/** Silence inform()/warn() output (used by tests and benches). */
void setQuietLogging(bool quiet);

/**
 * Assert a condition that must hold unless apir itself is broken.
 * Active in all build types, unlike <cassert>.
 */
#define APIR_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::apir::panic("assertion '", #cond, "' failed at ", __FILE__,   \
                          ":", __LINE__, " ", ##__VA_ARGS__);               \
        }                                                                   \
    } while (0)

} // namespace apir

#endif // APIR_SUPPORT_LOGGING_HH
