// Minimal leveled logger.
//
// The simulator is deterministic and each simulation runs on one thread, so
// the logger is deliberately simple: a global level, a global sink (stderr),
// a per-thread simulated clock, and printf-free streaming macros that
// evaluate their arguments only when the level is enabled.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/types.h"

namespace redplane {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the current global log level.  On first call, honors the
/// REDPLANE_LOG_LEVEL environment variable (name or numeric value).
LogLevel GetLogLevel();

/// Sets the global log level; returns the previous level.
LogLevel SetLogLevel(LogLevel level);

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive) or a
/// numeric level into `*out`.  Returns false (leaving `*out` untouched) on
/// unrecognized input.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// Registers a simulated-time source so log lines written on this thread
/// carry a `[t=1.234ms]` prefix.  `owner` identifies the registrant
/// (typically the simulator); the thread's last registration wins.
void SetLogClock(const void* owner, std::function<SimTime()> clock);

/// Removes the clock iff `owner` is the current registrant (so a destroyed
/// simulator cannot clear a newer one's clock).
void ClearLogClock(const void* owner);

/// Emits one formatted line to the sink.  Internal; use the RP_LOG macro.
void LogLine(LogLevel level, const char* file, int line,
             const std::string& message);

namespace internal {

/// Accumulates a log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { LogLine(level_, file_, line_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace redplane

#define RP_LOG(level)                                                     \
  if (::redplane::LogLevel::level < ::redplane::GetLogLevel()) {          \
  } else                                                                  \
    ::redplane::internal::LogMessage(::redplane::LogLevel::level,         \
                                     __FILE__, __LINE__)                  \
        .stream()
