// Wall-clock timing for the CPU runtime experiments.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>

namespace tasd {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Best (minimum) wall-clock milliseconds of `fn` over `repeats` timed
/// runs, after `warmup` untimed runs — the one measurement rule the
/// engine's measure() and every bench share. The
/// warm-up run faults code and data (instruction cache, branch
/// predictors, lazily-allocated output buffers, thread-pool wake-up)
/// out of the first *timed* run, so single-digit-repeat measurements —
/// exactly the regime where the loop-vs-batched deltas at GEMV widths
/// live — are not dominated by one cold first iteration.
inline double time_ms_min(int repeats, const std::function<void()>& fn,
                          int warmup = 1) {
  for (int w = 0; w < warmup; ++w) fn();
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.millis());
  }
  return best;
}

}  // namespace tasd
