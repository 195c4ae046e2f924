#include "obs/profiler.h"

#include <csignal>
#include <ctime>

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

#if defined(__SANITIZE_THREAD__)
#define DBG4ETH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DBG4ETH_TSAN 1
#endif
#endif

namespace dbg4eth {
namespace obs {

namespace {

/// The instance whose Start() installed the SIGPROF handler. Plain atomic
/// pointer: the handler must read it without locks.
std::atomic<Profiler*> g_active{nullptr};

/// Best-effort symbol name for a return address: demangled function name
/// when dladdr resolves one, else the containing object's basename, else
/// the raw address. Symbolization runs only in CollectFolded — never in
/// the signal handler.
std::string SymbolizePc(void* pc) {
  Dl_info info;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string name(demangled);
      std::free(demangled);
      // Drop the argument list so folded frames stay one token:
      // "ns::Class::Method(int, double)" -> "ns::Class::Method".
      const size_t paren = name.find('(');
      if (paren != std::string::npos) name.resize(paren);
      return name;
    }
    return info.dli_sname;
  }
  if (dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = info.dli_fname;
    for (const char* p = info.dli_fname; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    return StrFormat("[%s]", base);
  }
  return StrFormat("0x%zx", reinterpret_cast<size_t>(pc));
}

}  // namespace

void ProfilerSignalHandler(int /*signo*/) {
  Profiler* profiler = g_active.load(std::memory_order_acquire);
  if (profiler != nullptr) profiler->HandleSignal();
}

void Profiler::HandleSignal() {
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (armed_.load(std::memory_order_acquire)) {
    const uint64_t idx = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (idx < kMaxSamples) {
      RawSample& sample = samples_[idx];
      // backtrace() is not formally async-signal-safe because its first
      // call lazily loads libgcc; Start() forces that load before arming,
      // after which glibc's implementation only walks the stack.
      sample.depth = backtrace(sample.pcs, kMaxDepth);
      completed_.fetch_add(1, std::memory_order_release);
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

Profiler::Profiler() : samples_(std::make_unique<RawSample[]>(kMaxSamples)) {}

Profiler::~Profiler() { Stop(); }

Profiler* Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return profiler;
}

uint64_t Profiler::samples_captured() const {
  return completed_.load(std::memory_order_acquire);
}

Status Profiler::Start() {
#ifdef DBG4ETH_TSAN
  return Status::Unavailable(
      "sampling profiler is disabled under ThreadSanitizer");
#else
  if (armed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("profiler already running");
  }
  Profiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return Status::Unavailable("another profiler owns the SIGPROF handler");
  }

  // Force libgcc's lazy unwinder initialization (allocates) now, so the
  // signal handler's backtrace() calls never allocate.
  void* warmup[kMaxDepth];
  backtrace(warmup, kMaxDepth);

  claimed_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);

  struct sigaction action = {};
  action.sa_handler = &ProfilerSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // Don't fail syscalls in sampled threads.
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return Status::Internal("sigaction(SIGPROF) failed");
  }

  // A CLOCK_MONOTONIC timer ticks on wall time, so sampling keeps going
  // even when the process is blocked (ITIMER_PROF would only tick while
  // on-CPU). Caveat: SIGEV_SIGNAL is a *process-directed* signal — the
  // kernel delivers each expiry to ONE arbitrary eligible thread, in
  // practice often the same one, NOT to every thread and not
  // proportionally to their wall time. The folded output is therefore
  // "what the process is doing over wall time" with best-effort,
  // delivery-biased per-thread attribution; a proportional multi-thread
  // wall profile would need one SIGEV_THREAD_ID timer per thread.
  struct sigevent event = {};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  timer_t timer;
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return Status::Internal("timer_create(CLOCK_MONOTONIC) failed");
  }
  timer_ = timer;
  timer_created_ = true;

  armed_.store(true, std::memory_order_release);

  const long interval_ns = 1'000'000'000L / kSampleHz;
  struct itimerspec spec = {};
  spec.it_interval.tv_sec = interval_ns / 1'000'000'000L;
  spec.it_interval.tv_nsec = interval_ns % 1'000'000'000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) != 0) {
    Stop();
    return Status::Internal("timer_settime failed");
  }
  return Status::OK();
#endif
}

void Profiler::Stop() {
  if (timer_created_) {
    timer_t timer = static_cast<timer_t>(timer_);
    struct itimerspec disarm = {};
    timer_settime(timer, 0, &disarm, nullptr);
    timer_delete(timer);
    timer_created_ = false;
    timer_ = nullptr;
  }
  armed_.store(false, std::memory_order_release);
  // A signal delivered just before disarming may still be executing its
  // handler; wait it out so CollectFolded never races a writer.
  while (inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  if (g_active.load(std::memory_order_acquire) == this) {
    g_active.store(nullptr, std::memory_order_release);
  }
}

std::string Profiler::CollectFolded() const {
  const uint64_t n = std::min<uint64_t>(
      completed_.load(std::memory_order_acquire), kMaxSamples);
  std::unordered_map<void*, std::string> symbol_cache;
  std::map<std::string, uint64_t> folded;
  for (uint64_t i = 0; i < n; ++i) {
    const RawSample& sample = samples_[i];
    // Frames [0] and [1] are the handler and the kernel's signal
    // trampoline (__restore_rt) — not part of the interrupted stack.
    const int skip = std::min(sample.depth, 2);
    std::string line;
    for (int f = sample.depth - 1; f >= skip; --f) {
      auto [it, inserted] = symbol_cache.try_emplace(sample.pcs[f]);
      if (inserted) it->second = SymbolizePc(sample.pcs[f]);
      if (!line.empty()) line += ';';
      line += it->second;
    }
    if (line.empty()) continue;
    folded[line] += 1;
  }
  std::vector<std::pair<std::string, uint64_t>> lines(folded.begin(),
                                                      folded.end());
  std::stable_sort(lines.begin(), lines.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(count));
  }
  return out;
}

Status Profiler::ProfileFor(double seconds, std::string* folded_out) {
  std::unique_lock<std::mutex> lock(capture_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return Status::Unavailable("a profile capture is already in progress");
  }
  const double clamped = std::min(60.0, std::max(0.05, seconds));
  Status started = Start();
  if (!started.ok()) return started;
  std::this_thread::sleep_for(std::chrono::duration<double>(clamped));
  Stop();
  *folded_out = CollectFolded();
  return Status::OK();
}

}  // namespace obs
}  // namespace dbg4eth
