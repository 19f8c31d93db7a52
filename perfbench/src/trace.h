// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into
// a layer's public functions (generation, decomposition, server
// submission, scheduler decisions, engine replays, codec unpacks, ingest
// flushes, table views). Each span has a name, start and end, the span
// that was open on the same thread when it began (its parent), and the id
// of the request it belongs to. Spans stay in memory and are written out
// when the run ends; with tracing off a span costs one relaxed load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not tied to one request
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's start
  int64_t end_ns = 0;
  double value = 0;  ///< span-specific count (elements, candidates, rows)

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NowNs() const;
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  /// All spans recorded so far, in completion order.
  std::vector<Span> spans() const;
  /// Writes one JSON object per span and line to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  int64_t origin_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the current thread; nested ScopedSpans become children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(double value) { span_.value = value; }
  /// Id of this span (0 when tracing is off).
  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
