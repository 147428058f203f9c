// Measurement helpers of the end-to-end benchmark: percentiles, spans
// and their self times, the open-loop arrival schedule, and the result
// record every workload fills. Nothing here touches the library; the
// helpers are covered by selftest.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of the values (mean of the two middle ones for an even
/// count); 0 for an empty set.
double median(std::vector<double> v);

/// A tail value reports the highest percentile that still has
/// kTailBeyond samples above it, so it is never a single outlier.
inline constexpr std::size_t kTailBeyond = 10;

struct Tail {
  double value = 0.0;       ///< the sample at that rank
  double percentile = 0.0;  ///< share of samples at or below it, in %
  std::size_t samples = 0;
};

/// The sorted sample at index n - 1 - kTailBeyond. With fewer than
/// kTailBeyond + 1 samples no rank qualifies; the maximum is returned
/// with percentile 100 so the caller can see the sample was too small.
Tail tail(std::vector<double> v);

/// Latency tails are reported per window: the samples, in the order
/// they were taken, are cut into max(1, n / window) equal consecutive
/// windows; the value is the median of the windows' tail() values, so a
/// stall of the host moves one window, not the reported figure. With
/// the default window of 200 each window's tail is its p95.
/// `percentile` is the smallest window percentile, `samples` the total
/// count.
inline constexpr std::size_t kTailWindow = 200;
Tail windowed_tail(const std::vector<double>& in_order,
                   std::size_t window = kTailWindow);

/// One timed interval recorded by the benchmark around a public call.
/// `parent` is the id of the enclosing span (0 = none) and `request`
/// groups every span of one query or request.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store, safe to record into from several threads.
/// Spans are written out only when the run ends (write_chrome_trace).
class Tracer {
 public:
  std::uint64_t next_id();
  /// Record a span; returns its id (a fresh one when span.id is 0).
  std::uint64_t record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Self time of every span in milliseconds, index-aligned with `spans`:
/// its duration minus the part of its interval that its children cover
/// (children are the spans whose parent is its id; overlapping children
/// count once, and the part of a child outside its parent is ignored).
std::vector<double> self_ms(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds relative
/// to `origin`) with the span ids in args, plus free-form metadata.
void write_chrome_trace(
    const std::string& path, const std::vector<Span>& spans,
    Clock::time_point origin,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// Open-loop arrival offsets in seconds for a Poisson process of
/// `rate_per_s` over [0, seconds): exactly round(rate * seconds)
/// arrivals (at least one), placed as sorted independent uniforms —
/// a Poisson process conditioned on its count, so every run of a rate
/// offers the same number of requests. Deterministic in `seed`.
std::vector<double> arrival_offsets_s(double rate_per_s, double seconds,
                                      std::uint64_t seed);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// What one workload run reports. `metrics` keeps insertion order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Record a failed check; the run then reports correct = false.
  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// The result as the one-line JSON object the benchmark prints last.
std::string result_json(const Result& r);

/// JSON string literal with escaping.
std::string json_str(const std::string& s);

}  // namespace perfbench
