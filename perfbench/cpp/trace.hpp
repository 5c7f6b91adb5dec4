// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into the library's public functions in
// spans (name, start, end, parent, request or step id). Spans stay in a
// per-thread buffer while the workload runs and are written out as Chrome
// trace-event JSON once it has finished. With tracing off a Span costs one
// relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct SpanRecord {
  const char* name = "";
  double start = 0.0;  // seconds on the steady clock
  double end = 0.0;
  std::int64_t parent = -1;  // index in the same thread's buffer, -1 = root
  std::int64_t id = -1;      // request or step id, -1 = none
};

/// One thread's spans in the order they were opened.
struct ThreadSpans {
  int tid = 0;
  std::vector<SpanRecord> spans;
};

class Tracer {
 public:
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Copies every thread's spans recorded so far.
  [[nodiscard]] static std::vector<ThreadSpans> collect();
  /// Drops every recorded span (buffers stay registered).
  static void clear();
  /// Writes the spans as Chrome trace-event JSON.
  static void write_chrome_json(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span; nested spans on the same thread become children.
class Span {
 public:
  explicit Span(const char* name, std::int64_t id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Per-name totals over a set of spans.
struct SelfTimes {
  std::map<std::string, double> self_s;   // span minus its children
  std::map<std::string, double> total_s;  // whole span
  std::map<std::string, std::int64_t> count;
  /// Per-span self seconds, by name, in recording order.
  std::map<std::string, std::vector<double>> self_samples;
};

[[nodiscard]] SelfTimes self_times(const std::vector<ThreadSpans>& threads);

/// Worst relative gap, over every root span named `root`, between the
/// root's wall time and the sum of the self times of the root and all of
/// its descendants. 0 when the spans nest exactly.
[[nodiscard]] double reconcile(const std::vector<ThreadSpans>& threads,
                               const std::string& root);

}  // namespace pb
