#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common.hpp"

namespace pb {
namespace {

struct Buffer {
  int tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  // stack of open span indices
};

// Buffers outlive the rank threads that filled them: they are owned here
// and only handed out by pointer to their thread.
std::mutex g_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<int>(g_buffers.size());
  }
  return *buffer;
}

/// Seconds of [lo, hi] covered by the union of `intervals`.
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double sum = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
  return sum;
}

/// Self seconds of every span of one thread.
std::vector<double> thread_self(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    self[i] = (s.end - s.start) - covered(kids[i], s.start, s.end);
  }
  return self;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

std::vector<ThreadSpans> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<ThreadSpans> out;
  for (const auto& b : g_buffers) out.push_back({b->tid, b->spans});
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

void Tracer::write_chrome_json(const std::string& path) {
  const std::vector<ThreadSpans> threads = collect();
  double t0 = std::numeric_limits<double>::infinity();
  for (const ThreadSpans& t : threads)
    for (const SpanRecord& s : t.spans) t0 = std::min(t0, s.start);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadSpans& t : threads) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << t.tid
          << ",\"ts\":" << fmt((s.start - t0) * 1e6)
          << ",\"dur\":" << fmt((s.end - s.start) * 1e6)
          << ",\"args\":{\"index\":" << i << ",\"parent\":" << s.parent
          << ",\"id\":" << s.id << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("could not write trace " + path);
}

Span::Span(const char* name, std::int64_t id) {
  if (!Tracer::enabled()) return;
  Buffer& b = local_buffer();
  SpanRecord r;
  r.name = name;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.id = id;
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back(r);
  b.open.push_back(index_);
  // Stamped last so the bookkeeping above is not charged to the span.
  b.spans.back().start = now_s();
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = now_s();
  Buffer& b = local_buffer();
  b.spans[static_cast<std::size_t>(index_)].end = end;
  b.open.pop_back();
}

SelfTimes self_times(const std::vector<ThreadSpans>& threads) {
  SelfTimes out;
  for (const ThreadSpans& t : threads) {
    const std::vector<double> self = thread_self(t.spans);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      out.self_s[s.name] += self[i];
      out.total_s[s.name] += s.end - s.start;
      out.count[s.name] += 1;
      out.self_samples[s.name].push_back(self[i]);
    }
  }
  return out;
}

double reconcile(const std::vector<ThreadSpans>& threads,
                 const std::string& root) {
  double worst = 0.0;
  for (const ThreadSpans& t : threads) {
    const std::vector<double> self = thread_self(t.spans);
    // Spans are recorded in open order, so a span's root is already known
    // when it is reached.
    std::vector<std::int64_t> root_of(t.spans.size(), -1);
    std::vector<double> sum(t.spans.size(), 0.0);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      root_of[i] = s.parent < 0 ? static_cast<std::int64_t>(i)
                                : root_of[static_cast<std::size_t>(s.parent)];
      sum[static_cast<std::size_t>(root_of[i])] += self[i];
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      if (s.parent >= 0 || root != s.name) continue;
      const double wall = s.end - s.start;
      if (wall <= 0.0) continue;
      worst = std::max(worst, std::fabs(sum[i] - wall) / wall);
    }
  }
  return worst;
}

}  // namespace pb
