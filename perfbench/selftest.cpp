// Self-tests of the benchmark's measurement helpers (harness.hpp):
// median and tail percentiles, span self times, and the open-loop
// arrival schedule. Exits non-zero on the first failed check; run.py
// runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3, 1, 2}) == 2.0, "median of odd count is the middle");
  check(median({4, 1, 3, 2}) == 2.5, "median of even count averages");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  const Tail t = tail(v);
  check(t.samples == 100, "tail counts samples");
  check(t.value == 90.0, "tail leaves exactly 10 samples beyond it");
  check(near(t.percentile, 90.0), "tail percentile of 100 samples is p90");

  std::vector<double> w(1000);
  for (int i = 0; i < 1000; ++i) w[i] = i;
  const Tail tw = tail(w);
  check(tw.value == 989.0 && near(tw.percentile, 99.0),
        "tail of 1000 samples is p99");

  const Tail small = tail({5, 7, 6});
  check(small.value == 7.0 && small.percentile == 100.0,
        "too few samples report the maximum at p100");

  // Five windows of 100; a stall in one window does not move the value.
  std::vector<double> series(500, 1.0);
  for (std::size_t w = 0; w < 5; ++w)
    for (std::size_t i = 0; i < 20; ++i) series[w * 100 + i] = 2.0 + w;
  for (std::size_t i = 0; i < 100; ++i) series[300 + i] += 100.0;
  const Tail wt = windowed_tail(series, 100);
  check(wt.samples == 500, "windowed tail counts every sample");
  check(wt.value == 4.0, "windowed tail is the median window tail");
  check(near(wt.percentile, 90.0), "windowed tail reports window percentile");
  check(windowed_tail(w, 1000).value == tail(w).value,
        "one window is the plain tail");
  check(windowed_tail(w, 5000).value == tail(w).value,
        "fewer samples than a window make one window");
  check(windowed_tail(w).percentile == 95.0, "a window of 200 gives p95");
}

Clock::time_point at(double ms) {
  return Clock::time_point() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

void test_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union
  // 40) and [90,120] (clipped to 10); grandchild [12,18] inside a child.
  const std::vector<Span> spans = {
      {"root", 1, 0, 1, at(0), at(100)},
      {"a", 2, 1, 1, at(10), at(30)},
      {"b", 3, 1, 1, at(20), at(50)},
      {"c", 4, 1, 1, at(90), at(120)},
      {"g", 5, 2, 1, at(12), at(18)},
      {"lone", 6, 0, 2, at(0), at(7)},
  };
  const auto self = self_ms(spans);
  check(near(self[0], 100 - 40 - 10), "parent minus union of children");
  check(near(self[1], 20 - 6), "child minus its own child");
  check(near(self[2], 30), "leaf keeps its duration");
  check(near(self[3], 30), "child extending past its parent keeps its time");
  check(near(self[5], 7), "span without children");

  Tracer tr;
  const auto id = tr.record({"x", 0, 0, 0, at(0), at(1)});
  check(id != 0 && tr.next_id() == id + 1, "tracer hands out fresh ids");
  check(tr.spans().size() == 1, "tracer keeps spans");
}

void test_arrivals() {
  const auto a = arrival_offsets_s(1000.0, 2.0, 42);
  const auto b = arrival_offsets_s(1000.0, 2.0, 42);
  const auto c = arrival_offsets_s(1000.0, 2.0, 43);
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");
  check(a.size() == 2000, "count is rate x seconds");
  bool sorted = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) sorted = false;
    if (a[i] < 0.0 || a[i] >= 2.0) in_range = false;
  }
  check(sorted, "arrivals are in order");
  check(in_range, "arrivals fall inside the window");

  // Exponential gaps: mean 1/rate, and about e^-1 of them exceed it.
  const auto d = arrival_offsets_s(1000.0, 20.0, 7);
  double sum = 0.0;
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < d.size(); ++i) {
    const double gap = d[i] - d[i - 1];
    sum += gap;
    if (gap > 1e-3) ++long_gaps;
  }
  const double n = static_cast<double>(d.size() - 1);
  check(std::fabs(sum / n - 1e-3) < 5e-5, "mean gap is 1/rate");
  check(std::fabs(long_gaps / n - std::exp(-1.0)) < 0.02,
        "gaps are exponentially distributed");
  check(arrival_offsets_s(0.1, 1.0, 1).size() == 1, "at least one arrival");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_arrivals();
  if (failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
