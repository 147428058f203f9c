#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= kTailBeyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - 1 - kTailBeyond];
  t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                 static_cast<double>(n);
  return t;
}

Tail windowed_tail(const std::vector<double>& in_order, std::size_t window) {
  Tail t;
  t.samples = in_order.size();
  if (in_order.empty()) return t;
  const std::size_t windows =
      std::max<std::size_t>(1, in_order.size() / std::max<std::size_t>(1, window));
  std::vector<double> values;
  t.percentile = 100.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() + w * in_order.size() / windows;
    const auto end = in_order.begin() + (w + 1) * in_order.size() / windows;
    const Tail wt = tail(std::vector<double>(begin, end));
    values.push_back(wt.value);
    t.percentile = std::min(t.percentile, wt.percentile);
  }
  t.value = median(values);
  return t;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

std::uint64_t Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = ++last_id_;
  const std::uint64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double self = ms_between(s.start, s.end);
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (std::size_t c : it->second) {
        const auto a = std::max(spans[c].start, s.start);
        const auto b = std::min(spans[c].end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      for (std::size_t k = 0; k < iv.size();) {
        auto [a, b] = iv[k];
        for (++k; k < iv.size() && iv[k].first <= b; ++k)
          b = std::max(b, iv[k].second);
        covered += ms_between(a, b);
      }
      self -= covered;
    }
    out[i] = self;
  }
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_chrome_trace(
    const std::string& path, const std::vector<Span>& spans,
    Clock::time_point origin,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i)
    f << (i ? "," : "") << json_str(metadata[i].first) << ":"
      << json_str(metadata[i].second);
  f << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    f << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
      << ",\"ts\":" << num(ts) << ",\"dur\":" << num(dur)
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("failed writing trace file " + path);
}

std::vector<double> arrival_offsets_s(double rate_per_s, double seconds,
                                      std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate_per_s * seconds)));
  std::mt19937_64 engine(seed);
  std::vector<double> t(n);
  for (double& x : t) {
    // 53 random bits -> [0, 1): the same stream on every standard library.
    const double u = static_cast<double>(engine() >> 11) * 0x1.0p-53;
    x = u * seconds;
  }
  std::sort(t.begin(), t.end());
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string result_json(const Result& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    o << (i ? ", " : "") << json_str(name) << ": {\"value\": " << num(vu.first)
      << ", \"unit\": " << json_str(vu.second) << "}";
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
