#include "common/logging.hpp"

#include <atomic>
#include <iostream>

namespace tasd {

namespace {
// Relaxed: the level is a standalone filter value — readers need some
// recent value, not ordering against any other memory.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
  std::cerr << "[tasd:" << level_name(level) << "] " << msg << '\n';
}
}  // namespace detail

}  // namespace tasd
