// Minimal leveled logging to stderr.
//
// The library itself is silent by default; benches and examples raise the
// level when narrating progress. Safe to use from any thread: the level
// is a relaxed atomic (a level change need not order other memory), and
// std::cerr is thread-safe, though lines from concurrent threads may
// interleave.
#pragma once

#include <sstream>
#include <string>

namespace tasd {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {
void log_line(LogLevel level, const std::string& msg);
}

}  // namespace tasd

#define TASD_LOG(level, msg)                                       \
  do {                                                             \
    if (static_cast<int>(level) >=                                 \
        static_cast<int>(::tasd::log_level())) {                   \
      std::ostringstream tasd_log_os_;                             \
      tasd_log_os_ << msg;                                         \
      ::tasd::detail::log_line(level, tasd_log_os_.str());         \
    }                                                              \
  } while (false)

#define TASD_DEBUG(msg) TASD_LOG(::tasd::LogLevel::kDebug, msg)
#define TASD_INFO(msg) TASD_LOG(::tasd::LogLevel::kInfo, msg)
#define TASD_WARN(msg) TASD_LOG(::tasd::LogLevel::kWarn, msg)
#define TASD_ERROR(msg) TASD_LOG(::tasd::LogLevel::kError, msg)
