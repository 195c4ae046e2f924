#ifndef DBG4ETH_OBS_TRACE_H_
#define DBG4ETH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dbg4eth {
namespace obs {

/// \brief One finished span in a timing tree. Offsets and durations are
/// microseconds on the steady clock; `start_us` is relative to the root
/// span's start, so siblings order by it and a child's
/// [start_us, start_us + duration_us] interval nests inside its parent's.
struct SpanNode {
  std::string name;
  double start_us = 0.0;
  double duration_us = 0.0;
  /// Correlation id of the request this tree belongs to ("" when the work
  /// ran outside any request context). Stamped on the root at finish time
  /// from the thread's ScopedTraceContext; FindTrace looks trees up by it.
  std::string trace_id;
  /// True when this span (or any span below it — errors bubble up to the
  /// root at finish time) covered a failed operation. Error roots are
  /// always retained by the tracer regardless of sampling.
  bool error = false;
  std::vector<SpanNode> children;
};

/// First span named `name` in a depth-first walk of `root`, or nullptr.
const SpanNode* FindSpan(const SpanNode& root, const std::string& name);

/// Depth-first span names of the tree (root first).
std::vector<std::string> SpanNames(const SpanNode& root);

/// Indented multi-line rendering, one span per line:
///   score_cold                      312845.2us
///     materialize                    88211.7us  (+0.4us)
std::string FormatSpanTree(const SpanNode& root);

/// Fresh random 128-bit trace id as 32 lowercase hex chars (the W3C
/// trace-context format). Never all-zero.
std::string GenerateTraceId();

/// \brief RAII thread-local trace context: while alive, every root span
/// finished on this thread is stamped with `trace_id` (and the context's
/// error flag). Contexts nest — the previous context is restored on
/// destruction — so a worker can process several requests' groups in one
/// batch without leaking ids between them.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::string trace_id);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  /// The innermost active context's trace id on this thread ("" if none).
  static const std::string& CurrentTraceId();

 private:
  std::string previous_;
};

struct TracerConfig {
  /// Sampled (non-error, under-threshold) finished root trees retained
  /// (ring buffer: oldest evicted first).
  size_t buffer_capacity = 64;
  /// Error and over-threshold-latency roots retained tail-based in their
  /// own ring, never displaced by ordinary traffic.
  size_t retained_capacity = 32;
  /// Keep the 1st, (n+1)th, (2n+1)th... finished root; 1 keeps every
  /// root, 0 keeps none. Sampling bounds the cost of bursty producers
  /// (training loops emitting thousands of roots) without losing the
  /// first tree of a fresh run.
  uint64_t sample_every_n = 1;
  /// Tail-based latency retention: a finished root at least this slow is
  /// always kept (into the retained ring), bypassing sampling. <= 0
  /// disables latency-based retention.
  double retain_latency_us = 1'000'000.0;
};

/// \brief Bounded buffer of sampled, finished span trees with tail-based
/// retention.
///
/// Span structure is accumulated per thread with no synchronization (see
/// TraceSpan); the tracer is only touched when a *root* span finishes,
/// under one short lock. Retention is decided *after* the root finished
/// (tail-based): error roots and roots slower than `retain_latency_us`
/// always land in a dedicated retained ring, so a burst of fast, healthy
/// traffic can never evict the one trace that explains a p99 outlier or a
/// failure. Everything else goes through head sampling into the sampled
/// ring. Snapshot copies both out.
class Tracer {
 public:
  explicit Tracer(const TracerConfig& config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer all library spans record into.
  static Tracer* Global();

  /// Drops retained trees and resets the sampling phase (so the next
  /// finished root is kept again).
  void Clear();

  /// Root spans finished so far (sampled or not).
  uint64_t roots_finished() const {
    return roots_finished_.load(std::memory_order_relaxed);
  }

  /// Retained trees: the sampled ring (oldest first) followed by the
  /// tail-retained error/slow ring (oldest first).
  std::vector<SpanNode> Snapshot() const;

  /// Newest retained root with this name, if any (tail-retained roots are
  /// searched first — they are the interesting ones).
  std::optional<SpanNode> LatestRoot(const std::string& name) const;

  /// Newest retained root stamped with `trace_id`, if any. The lookup
  /// behind `GET /debug/traces?id=`.
  std::optional<SpanNode> FindTrace(const std::string& trace_id) const;

  /// Called by TraceSpan when a root finishes; applies tail retention
  /// then sampling. Public so tests can inject hand-built trees.
  void RecordRoot(SpanNode&& root);

 private:
  TracerConfig config_;
  std::atomic<uint64_t> roots_finished_{0};
  mutable std::mutex mu_;
  std::deque<SpanNode> ring_;      ///< Head-sampled ordinary roots.
  std::deque<SpanNode> retained_;  ///< Tail-retained error/slow roots.
};

/// \brief RAII timing scope. Spans opened while another span is active on
/// the same thread become its children; the outermost span is the root
/// and delivers the finished tree to its tracer (sampled). Spans must be
/// stack-ordered per thread — natural with scoped locals. Creation costs
/// one steady-clock read; finishing costs another plus a small tree node,
/// so spans belong on ms-scale operations, not nanosecond hot paths.
class TraceSpan {
 public:
  /// `name` must outlive the span (string literals). Null tracer = Global.
  explicit TraceSpan(const char* name, Tracer* tracer = nullptr);
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Marks the span as covering a failed operation. The flag bubbles up
  /// to the root at finish time, which forces tail retention of the tree.
  void SetError();

  /// Finishes the span before scope exit (idempotent).
  void End();

  /// Microseconds since construction (live reads are fine).
  double elapsed_us() const;

 private:
  std::chrono::steady_clock::time_point start_;
  size_t frame_index_ = 0;
  bool active_ = false;
};

}  // namespace obs
}  // namespace dbg4eth

#endif  // DBG4ETH_OBS_TRACE_H_
