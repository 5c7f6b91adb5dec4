// Shared pieces of the perfbench binary: clock, exact order statistics,
// the per-run report and the workload entry points.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Seconds on the steady clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shortest round-trip decimal form of `v`, for JSON.
inline std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Exact q-quantile (0 <= q <= 1) of a sample, linearly interpolated
/// between order statistics. NaN when empty.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// A sample and the time it belongs to (any clock; only the order counts).
struct Timed {
  double t;
  double value;
};

/// Tail q-quantile that a burst of host noise in part of a run cannot
/// move: the samples, in time order, are cut into consecutive windows of
/// equal count (at most five, of at least 60 samples each: six beyond a p90
/// in each window, thirty in five), and the result is the median of the
/// windows' q-quantiles. NaN when empty.
inline double windowed_quantile(std::vector<Timed> xs, double q) {
  if (xs.empty()) return std::nan("");
  std::stable_sort(xs.begin(), xs.end(),
                   [](const Timed& a, const Timed& b) { return a.t < b.t; });
  const std::size_t windows = std::clamp<std::size_t>(xs.size() / 60, 1, 5);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = w * xs.size() / windows;
    const std::size_t hi = (w + 1) * xs.size() / windows;
    std::vector<double> v;
    for (std::size_t i = lo; i < hi; ++i) v.push_back(xs[i].value);
    per_window.push_back(quantile(std::move(v), q));
  }
  return median(std::move(per_window));
}

/// Seconds to milliseconds.
inline double ms(double s) { return 1e3 * s; }

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mib();

/// Returns once the steady clock (now_s() scale) reaches `t`.
void wait_until_s(double t);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  // observations behind the value
};

/// Everything one workload run reports.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // correctness gates that failed
  std::vector<std::pair<std::string, std::string>> facts;

  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    failures.push_back(what);
  }
  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace output of the traced run
};

/// Runs the workload; fills the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
void run_serve(const Args& args, Report& report);
void run_train(const Args& args, Report& report);

/// Layer probes shared by every traced run (probes.cpp).
void run_probes(std::uint64_t seed, Report& report);

}  // namespace pb

