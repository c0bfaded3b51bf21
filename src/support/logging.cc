#include "support/logging.hh"

#include <atomic>
#include <cstdio>

namespace apir {

namespace {

// Atomic so concurrent simulation jobs (the parallel sweep runner)
// may consult and set quietness without a data race.
std::atomic<bool> quiet{false};

// Depth of nested ScopedFatalThrows regions on this thread. While
// positive, fatal() raises FatalError instead of exiting: each server
// worker thread guards its own request without affecting the others.
thread_local int fatalThrowDepth = 0;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

} // namespace

void
setQuietLogging(bool q)
{
    quiet.store(q, std::memory_order_relaxed);
}

ScopedFatalThrows::ScopedFatalThrows()
{
    ++fatalThrowDepth;
}

ScopedFatalThrows::~ScopedFatalThrows()
{
    --fatalThrowDepth;
}

namespace detail {

void
logMessage(LogLevel level, const std::string &msg)
{
    if (quiet.load(std::memory_order_relaxed) &&
        (level == LogLevel::Inform || level == LogLevel::Warn))
        return;
    std::fprintf(stderr, "%s: %s\n", levelName(level), msg.c_str());
}

void
logAndDie(LogLevel level, const std::string &where, const std::string &msg)
{
    // Inside a ScopedFatalThrows region a *user* error unwinds to the
    // guard holder (who turns it into an error response) instead of
    // taking the process down. Panics still fall through to abort.
    if (level == LogLevel::Fatal && fatalThrowDepth > 0)
        throw FatalError(where + msg);
    std::fprintf(stderr, "%s: %s%s\n", levelName(level), where.c_str(),
                 msg.c_str());
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

} // namespace detail

} // namespace apir
