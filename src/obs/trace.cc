#include "obs/trace.h"

#include <random>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace dbg4eth {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

/// One active (not yet finished) span on this thread.
struct Frame {
  const char* name = nullptr;
  Clock::time_point start;
  Tracer* tracer = nullptr;  ///< Destination; set by the root frame.
  SpanNode node;             ///< Finished children accumulate here.
};

/// Per-thread active-span stack. Spans are strictly scoped, so LIFO order
/// is guaranteed by construction; no synchronization is needed until a
/// root finishes.
thread_local std::vector<Frame> t_stack;
thread_local Clock::time_point t_root_start;

/// Innermost ScopedTraceContext's trace id for this thread.
thread_local std::string t_trace_id;

void AppendTree(const SpanNode& node, int depth, double parent_start,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += StrFormat("%-*s %12.1fus", 28 - 2 * depth, node.name.c_str(),
                    node.duration_us);
  if (depth > 0) {
    *out += StrFormat("  (+%.1fus)", node.start_us - parent_start);
  }
  if (node.error) *out += "  [error]";
  *out += "\n";
  for (const SpanNode& child : node.children) {
    AppendTree(child, depth + 1, node.start_us, out);
  }
}

bool TreeHasError(const SpanNode& node) {
  if (node.error) return true;
  for (const SpanNode& child : node.children) {
    if (TreeHasError(child)) return true;
  }
  return false;
}

}  // namespace

const SpanNode* FindSpan(const SpanNode& root, const std::string& name) {
  if (root.name == name) return &root;
  for (const SpanNode& child : root.children) {
    if (const SpanNode* found = FindSpan(child, name)) return found;
  }
  return nullptr;
}

std::vector<std::string> SpanNames(const SpanNode& root) {
  std::vector<std::string> names;
  names.push_back(root.name);
  for (const SpanNode& child : root.children) {
    for (std::string& name : SpanNames(child)) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

std::string FormatSpanTree(const SpanNode& root) {
  std::string out;
  AppendTree(root, 0, 0.0, &out);
  return out;
}

std::string GenerateTraceId() {
  // Thread-local engine: contention-free, and distinct threads get distinct
  // random_device seeds so concurrent requests cannot collide.
  thread_local std::mt19937_64 rng = [] {
    std::random_device rd;
    std::seed_seq seed{rd(), rd(), rd(), rd()};
    return std::mt19937_64(seed);
  }();
  uint64_t hi = rng();
  uint64_t lo = rng();
  if (hi == 0 && lo == 0) lo = 1;  // all-zero is invalid per W3C
  static const char* kHex = "0123456789abcdef";
  std::string id(32, '0');
  for (int i = 0; i < 16; ++i) {
    id[15 - i] = kHex[(hi >> (4 * i)) & 0xF];
    id[31 - i] = kHex[(lo >> (4 * i)) & 0xF];
  }
  return id;
}

ScopedTraceContext::ScopedTraceContext(std::string trace_id)
    : previous_(std::move(t_trace_id)) {
  t_trace_id = std::move(trace_id);
}

ScopedTraceContext::~ScopedTraceContext() { t_trace_id = std::move(previous_); }

const std::string& ScopedTraceContext::CurrentTraceId() { return t_trace_id; }

Tracer::Tracer(const TracerConfig& config) : config_(config) {}

Tracer* Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return tracer;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  retained_.clear();
  roots_finished_.store(0, std::memory_order_relaxed);
}

std::vector<SpanNode> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanNode> out(ring_.begin(), ring_.end());
  out.insert(out.end(), retained_.begin(), retained_.end());
  return out;
}

std::optional<SpanNode> Tracer::LatestRoot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->name == name) return *it;
  }
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->name == name) return *it;
  }
  return std::nullopt;
}

std::optional<SpanNode> Tracer::FindTrace(const std::string& trace_id) const {
  if (trace_id.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->trace_id == trace_id) return *it;
  }
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->trace_id == trace_id) return *it;
  }
  return std::nullopt;
}

void Tracer::RecordRoot(SpanNode&& root) {
  const uint64_t nth = roots_finished_.fetch_add(1, std::memory_order_relaxed);
  if (root.trace_id.empty()) root.trace_id = ScopedTraceContext::CurrentTraceId();
  if (!root.error && TreeHasError(root)) root.error = true;
  // Tail-based retention: the decision uses the *finished* root, so an
  // error or a latency outlier is kept even if head sampling would have
  // dropped it, and ordinary traffic can never evict it from `retained_`.
  const double threshold = config_.retain_latency_us;
  const bool retain =
      root.error || (threshold > 0.0 && root.duration_us >= threshold);
  std::lock_guard<std::mutex> lock(mu_);
  if (retain && config_.retained_capacity > 0) {
    while (retained_.size() >= config_.retained_capacity) retained_.pop_front();
    retained_.push_back(std::move(root));
    return;
  }
  const uint64_t every = config_.sample_every_n;
  if (every == 0 || nth % every != 0) return;
  while (ring_.size() >= config_.buffer_capacity) ring_.pop_front();
  ring_.push_back(std::move(root));
}

TraceSpan::TraceSpan(const char* name, Tracer* tracer) {
  start_ = Clock::now();
  Frame frame;
  frame.name = name;
  frame.start = start_;
  if (t_stack.empty()) {
    t_root_start = start_;
    frame.tracer = tracer != nullptr ? tracer : Tracer::Global();
  }
  frame.node.name = name;
  frame.node.start_us = ElapsedUs(t_root_start, start_);
  frame_index_ = t_stack.size();
  t_stack.push_back(std::move(frame));
  active_ = true;
}

void TraceSpan::SetError() {
  if (!active_) return;
  t_stack[frame_index_].node.error = true;
}

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  DBG4ETH_CHECK_EQ(frame_index_, t_stack.size() - 1)
      << "TraceSpan finished out of stack order";
  Frame frame = std::move(t_stack.back());
  t_stack.pop_back();
  frame.node.duration_us = ElapsedUs(frame.start, Clock::now());
  if (t_stack.empty()) {
    frame.tracer->RecordRoot(std::move(frame.node));
  } else {
    t_stack.back().node.children.push_back(std::move(frame.node));
  }
}

double TraceSpan::elapsed_us() const {
  return ElapsedUs(start_, Clock::now());
}

}  // namespace obs
}  // namespace dbg4eth
