#ifndef DBG4ETH_OBS_PROFILER_H_
#define DBG4ETH_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace dbg4eth {
namespace obs {

/// \brief Sampling wall-clock profiler with a folded-stack text output.
///
/// While running, a POSIX interval timer (CLOCK_MONOTONIC) delivers
/// SIGPROF at `kSampleHz`; the handler captures the interrupted thread's
/// call stack with `backtrace()` into a slot of a preallocated buffer
/// claimed by one atomic fetch_add — no locks, no allocation, nothing
/// async-signal-unsafe on the capture path. `CollectFolded()` symbolizes
/// the raw frames (dladdr + demangle, done outside the handler) and
/// aggregates them into collapsed-stack lines:
///
///   dbg4eth::serve::InferenceService::ScoreCold;...;dgemm_kernel 42
///
/// one line per unique stack, leaf last, count after the final space —
/// the format `flamegraph.pl` / speedscope / inferno consume directly.
///
/// The profiler is off by default and costs nothing until started. Only
/// one capture can run at a time (`ProfileFor` serializes and fails fast
/// with Unavailable when busy). Under ThreadSanitizer the profiler
/// refuses to start: TSan's signal interception makes `backtrace()` from
/// a handler unsafe, and a profile under TSan would measure the
/// instrumentation anyway.
class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler behind `GET /debug/profile`.
  static Profiler* Global();

  /// Captures for `seconds` (clamped to [0.05, 60]) and returns the
  /// folded-stack text. Unavailable if a capture is already running.
  Status ProfileFor(double seconds, std::string* folded_out);

  /// Arms the timer and starts capturing into a fresh buffer.
  /// FailedPrecondition if already running; Unavailable under TSan or if
  /// another Profiler instance holds the (process-wide) SIGPROF handler.
  Status Start();

  /// Disarms the timer and waits for in-flight handlers to drain.
  /// Idempotent.
  void Stop();

  bool running() const { return armed_.load(std::memory_order_acquire); }

  /// Samples captured into the buffer so far (excludes overflow drops).
  uint64_t samples_captured() const;

  /// Signals that arrived with the buffer already full.
  uint64_t samples_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Symbolizes and aggregates the captured samples into folded-stack
  /// lines (sorted by descending count). Call after Stop().
  std::string CollectFolded() const;

 private:
  friend void ProfilerSignalHandler(int);
  void HandleSignal();

  /// Sampling frequency. Deliberately prime (97 instead of 100) so the
  /// sampler cannot phase-lock with millisecond-periodic work and keep
  /// hitting the same instant of a loop iteration.
  static constexpr int kSampleHz = 97;
  /// Preallocated sample capacity; signals arriving after the buffer is
  /// full are counted but dropped. 64k samples at 97 Hz is ~11 minutes.
  static constexpr size_t kMaxSamples = 65536;
  static constexpr int kMaxDepth = 64;
  struct RawSample {
    int depth = 0;
    void* pcs[kMaxDepth];
  };

  std::unique_ptr<RawSample[]> samples_;
  std::atomic<uint64_t> claimed_{0};    ///< Slots handed to handlers.
  std::atomic<uint64_t> completed_{0};  ///< Slots fully written.
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> armed_{false};
  std::atomic<int> inflight_{0};  ///< Handlers currently executing.
  std::mutex capture_mu_;         ///< Serializes ProfileFor callers.
  bool timer_created_ = false;
  // timer_t is a pointer-sized opaque handle; stored as void* to keep
  // <time.h> types out of this header.
  void* timer_ = nullptr;
};

}  // namespace obs
}  // namespace dbg4eth

#endif  // DBG4ETH_OBS_PROFILER_H_
