#include <gtest/gtest.h>

#include <thread>

#include "common/logging.hpp"
#include "common/timer.hpp"

namespace tasd {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
  EXPECT_LT(t.millis(), 2000.0);
}

TEST(Timer, ResetRestarts) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.millis(), 15.0);
}

TEST(Timer, SecondsAndMillisConsistent) {
  Timer t;
  const double s = t.seconds();
  const double ms = t.millis();
  EXPECT_GE(ms, s * 1e3 * 0.5);  // both sampled close together
}

TEST(Logging, LevelGate) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no crash, no output check
  // needed — we only verify the gate holds).
  TASD_DEBUG("suppressed");
  TASD_INFO("suppressed");
  set_log_level(old);
}

TEST(Logging, OffSilencesEverything) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  TASD_ERROR("suppressed even at error level");
  set_log_level(old);
}

TEST(Logging, LevelIsSafeToSetAndReadAcrossThreads) {
  // One thread flips the level while another reads it through the
  // logging gate: a plain global here is a data race that
  // ThreadSanitizer reports; the atomic level makes it well-defined.
  const LogLevel old = log_level();
  std::thread writer([] {
    for (int i = 0; i < 1000; ++i)
      set_log_level(i % 2 == 0 ? LogLevel::kOff : LogLevel::kError);
  });
  for (int i = 0; i < 1000; ++i) {
    const LogLevel level = log_level();
    EXPECT_TRUE(level == LogLevel::kOff || level == LogLevel::kError ||
                level == old);
    TASD_DEBUG("suppressed at every level the writer sets");
  }
  writer.join();
  set_log_level(old);
}

}  // namespace
}  // namespace tasd
