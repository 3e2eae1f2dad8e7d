#include "common/logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace redplane {

namespace {
LogLevel g_level = LogLevel::kWarn;
thread_local const void* g_clock_owner = nullptr;
thread_local std::function<SimTime()> g_clock;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() {
  // Apply REDPLANE_LOG_LEVEL exactly once, lazily, so it takes effect
  // regardless of static-initialization order.
  static const bool env_applied = [] {
    if (const char* env = std::getenv("REDPLANE_LOG_LEVEL")) {
      LogLevel parsed;
      if (ParseLogLevel(env, &parsed)) g_level = parsed;
    }
    return true;
  }();
  (void)env_applied;
  return g_level;
}

LogLevel SetLogLevel(LogLevel level) {
  GetLogLevel();  // settle the env var first so it cannot override later
  LogLevel prev = g_level;
  g_level = level;
  return prev;
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") { *out = LogLevel::kTrace; return true; }
  if (lower == "debug") { *out = LogLevel::kDebug; return true; }
  if (lower == "info") { *out = LogLevel::kInfo; return true; }
  if (lower == "warn" || lower == "warning") { *out = LogLevel::kWarn; return true; }
  if (lower == "error") { *out = LogLevel::kError; return true; }
  if (lower == "off" || lower == "none") { *out = LogLevel::kOff; return true; }
  if (!lower.empty() && lower.size() == 1 && lower[0] >= '0' && lower[0] <= '5') {
    *out = static_cast<LogLevel>(lower[0] - '0');
    return true;
  }
  return false;
}

void SetLogClock(const void* owner, std::function<SimTime()> clock) {
  g_clock_owner = owner;
  g_clock = std::move(clock);
}

void ClearLogClock(const void* owner) {
  if (g_clock_owner != owner) return;
  g_clock_owner = nullptr;
  g_clock = nullptr;
}

void LogLine(LogLevel level, const char* file, int line,
             const std::string& message) {
  // Strip directories from the file name for readability.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  if (g_clock) {
    const double ms = static_cast<double>(g_clock()) / 1e6;
    std::fprintf(stderr, "[t=%.3fms] [%s %s:%d] %s\n", ms, LevelName(level),
                 base, line, message.c_str());
  } else {
    std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line,
                 message.c_str());
  }
}

}  // namespace redplane
