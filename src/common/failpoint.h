#ifndef DBG4ETH_COMMON_FAILPOINT_H_
#define DBG4ETH_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace dbg4eth {
namespace failpoint {

/// \brief Deterministic fault-injection registry (RocksDB fail_point
/// style).
///
/// Production code marks fallible sites with
/// `DBG4ETH_FAIL_POINT("serve.score_cold")`; tests enable a named point
/// with a trigger (always / every-Nth / after-N / seeded probability) and
/// an action (inject a Status error, sleep, or both) to drive error paths
/// that are otherwise unreachable without real hardware faults.
///
/// Unless the build defines DBG4ETH_FAILPOINTS_ENABLED (CMake option
/// `DBG4ETH_FAILPOINTS=ON`; the tsan/asan presets set it) the macros
/// compile to nothing, so shipping binaries pay zero cost at the marked
/// sites. The registry functions themselves are always compiled so tests
/// can introspect configuration regardless of the build flavor.
///
/// Thread safety: all functions are safe to call concurrently; Evaluate
/// takes one short lock per enabled-registry hit and sleeps (if
/// configured) outside the lock.
///
/// Failpoint catalog (sites wired in this repo):
///   ckpt.write        WriteFramedCheckpoint, before the frame is emitted
///   ckpt.read         ReadFramedCheckpoint, before the frame is parsed
///   eth.from_csv      CsvLedger::FromCsv, before parsing begins
///   eth.materialize   eth::MaterializeInstance, before sampling
///   serve.score_cold  InferenceService cold path, before materialization
///   train.epoch_end   Dbg4Eth training loop, after each epoch's snapshot
///                     decision (simulates a crash at an epoch boundary)
///   reload.validate   ModelRegistry, before the validation gate scores
///                     the probe set (simulates a poisoned/failed reload)
///   pool.task         ThreadPool worker, before running a task: every
///                     cold scoring request, HTTP handler and trainer task
///                     (sleep-only site: injected errors are ignored)
///   net.accept        HttpServer acceptor, after accept4 succeeds (the
///                     new socket is dropped, simulating accept storms)
///   net.conn_read     HttpServer event loop, before reading a connection
///                     (fires tear the connection down as a read error)
///   net.conn_write    HttpServer event loop, before writing a response
///                     (fires tear the connection down mid-response)
struct Spec {
  enum class Trigger {
    kAlways,       ///< Fire on every evaluation.
    kEveryNth,     ///< Fire on evaluations n, 2n, 3n, ...
    kAfterN,       ///< Pass the first n evaluations, then always fire.
    kProbability,  ///< Fire with probability `probability` (seeded RNG).
  };

  Trigger trigger = Trigger::kAlways;
  /// Parameter of kEveryNth / kAfterN (>= 1 for kEveryNth).
  uint64_t n = 1;
  /// Parameter of kProbability, in [0, 1].
  double probability = 1.0;
  /// Seed of the per-point RNG driving kProbability (deterministic runs).
  uint64_t seed = 0x5eedf;

  /// Status injected when the point fires (returned by the macro site).
  StatusCode code = StatusCode::kUnavailable;
  /// Message of the injected Status; empty = "<name> failpoint fired".
  std::string message;
  /// Sleep this long when the point fires, before returning (simulates a
  /// hung dependency / slow worker). 0 = no sleep.
  int64_t sleep_us = 0;
  /// When false the point only sleeps; Evaluate returns OK even when it
  /// fires (for void sites like thread-pool task execution).
  bool inject_error = true;
};

/// Shorthand spec constructors.
Spec Always(StatusCode code = StatusCode::kUnavailable);
Spec EveryNth(uint64_t n, StatusCode code = StatusCode::kUnavailable);
Spec AfterN(uint64_t n, StatusCode code = StatusCode::kUnavailable);
Spec WithProbability(double p, uint64_t seed = 0x5eedf,
                     StatusCode code = StatusCode::kUnavailable);
Spec SleepFor(int64_t sleep_us);

/// Registers (or reconfigures) a failpoint. Counters reset on re-Enable.
Status Enable(const std::string& name, const Spec& spec);
void Disable(const std::string& name);
void DisableAll();
bool IsEnabled(const std::string& name);

/// Evaluations of a point since it was enabled (0 if unknown).
uint64_t EvalCount(const std::string& name);
/// Evaluations on which the point fired.
uint64_t FireCount(const std::string& name);

/// Called by the macros: returns the injected error when `name` is
/// enabled and its trigger fires (after any configured sleep), OK
/// otherwise. Cheap when no failpoint is enabled anywhere (one relaxed
/// atomic load).
Status Evaluate(const char* name);

/// True when this build compiled the DBG4ETH_FAIL_POINT sites in.
inline constexpr bool kCompiledIn =
#ifdef DBG4ETH_FAILPOINTS_ENABLED
    true;
#else
    false;
#endif

}  // namespace failpoint
}  // namespace dbg4eth

#ifdef DBG4ETH_FAILPOINTS_ENABLED
/// Returns the injected Status out of the enclosing function (which must
/// return Status or Result<T>) when the named point fires.
#define DBG4ETH_FAIL_POINT(name)                                  \
  do {                                                            \
    ::dbg4eth::Status _fp_st = ::dbg4eth::failpoint::Evaluate(name); \
    if (!_fp_st.ok()) return _fp_st;                              \
  } while (false)
/// Side-effect-only site (sleeps apply, injected errors are discarded);
/// usable in void contexts.
#define DBG4ETH_FAIL_POINT_APPLY(name) \
  (void)::dbg4eth::failpoint::Evaluate(name)
#else
#define DBG4ETH_FAIL_POINT(name) \
  do {                           \
  } while (false)
#define DBG4ETH_FAIL_POINT_APPLY(name) \
  do {                                 \
  } while (false)
#endif

#endif  // DBG4ETH_COMMON_FAILPOINT_H_
