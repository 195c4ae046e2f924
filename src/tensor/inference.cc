#include "tensor/inference.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

// Free-list buffers are poisoned under AddressSanitizer, so a read through
// a reference or pointer that outlived its tensor's last handle reports a
// use-after-poison instead of returning another activation's values.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace dbg4eth {
namespace ag {
namespace {

thread_local InferenceArena* t_active_arena = nullptr;

}  // namespace

std::shared_ptr<internal::TensorNode> InferenceArena::PooledNode(
    Matrix value) {
  ++pass_stats_.nodes;
  if (cursor_ == nodes_.size()) {
    nodes_.push_back(std::make_shared<internal::TensorNode>());
    ++pass_stats_.fresh_nodes;
  }
  live_.push_back(cursor_);
  std::shared_ptr<internal::TensorNode>& node = nodes_[cursor_++];
  node->value = std::move(value);
  return node;
}

Matrix InferenceArena::Zeros(int rows, int cols) {
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  std::vector<double> buf = AcquireBuffer(n);
  buf.assign(n, 0.0);
  return Matrix::FromFlat(rows, cols, std::move(buf));
}

Matrix InferenceArena::Uninit(int rows, int cols) {
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  std::vector<double> buf = AcquireBuffer(n);
  buf.resize(n);
  return Matrix::FromFlat(rows, cols, std::move(buf));
}

Matrix InferenceArena::CopyOf(const Matrix& src) {
  const size_t n = static_cast<size_t>(src.rows()) *
                   static_cast<size_t>(src.cols());
  std::vector<double> buf = AcquireBuffer(n);
  buf.resize(n);
  if (n > 0) {
    std::memcpy(buf.data(), src.RowPtr(0), n * sizeof(double));
  }
  return Matrix::FromFlat(src.rows(), src.cols(), std::move(buf));
}

void InferenceArena::BeginPass() {
  for (size_t i : live_) {
    std::shared_ptr<internal::TensorNode>& node = nodes_[i];
    if (node.use_count() > 1) {
      // A caller still holds a handle from the previous pass (e.g. a
      // returned embedding). Abandon the node to its holders and put a
      // fresh one in the pool slot so their value stays intact.
      node = std::make_shared<internal::TensorNode>();
      ++pass_stats_.fresh_nodes;
      continue;
    }
    Recycle(node.get());
  }
  live_.clear();
  cursor_ = 0;
  pass_stats_ = PassStats();
}

void InferenceArena::ReclaimDropped() {
  size_t kept = 0;
  for (size_t i : live_) {
    std::shared_ptr<internal::TensorNode>& node = nodes_[i];
    if (node.use_count() == 1) {
      Recycle(node.get());
    } else {
      live_[kept++] = i;
    }
  }
  live_.resize(kept);
}

void InferenceArena::Recycle(internal::TensorNode* node) {
  node->grad = Matrix();
  node->requires_grad = false;
  std::vector<double> buf = node->value.TakeData();
  const size_t capacity = buf.capacity();
  if (capacity == 0) return;
  auto it = FirstBucketOfAtLeast(capacity);
  if (it == buckets_.end() || it->capacity != capacity) {
    it = buckets_.insert(it, Bucket{capacity, {}});
  }
  ASAN_POISON_MEMORY_REGION(buf.data(), capacity * sizeof(double));
  it->buffers.push_back(std::move(buf));
}

std::vector<InferenceArena::Bucket>::iterator
InferenceArena::FirstBucketOfAtLeast(size_t capacity) {
  return std::lower_bound(
      buckets_.begin(), buckets_.end(), capacity,
      [](const Bucket& b, size_t c) { return b.capacity < c; });
}

std::vector<double> InferenceArena::AcquireBuffer(size_t n) {
  ++pass_stats_.buffers;
  ReclaimDropped();
  for (auto it = FirstBucketOfAtLeast(n); it != buckets_.end(); ++it) {
    if (it->buffers.empty()) continue;
    std::vector<double> buf = std::move(it->buffers.back());
    it->buffers.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(buf.data(), it->capacity * sizeof(double));
    return buf;
  }
  ++pass_stats_.fresh_buffers;
  pass_stats_.fresh_bytes += n * sizeof(double);
  owned_bytes_ += n * sizeof(double);
  std::vector<double> buf;
  buf.reserve(n);
  return buf;
}

InferenceArena* InferenceArena::ThreadLocal() {
  static thread_local InferenceArena arena;
  return &arena;
}

InferenceScope::InferenceScope() {
  if (t_active_arena != nullptr) return;
  bound_ = InferenceArena::ThreadLocal();
  t_active_arena = bound_;
  bound_->BeginPass();
}

InferenceScope::InferenceScope(InferenceArena* arena) {
  DBG4ETH_CHECK(arena != nullptr);
  if (t_active_arena != nullptr) return;
  bound_ = arena;
  t_active_arena = bound_;
  bound_->BeginPass();
}

InferenceScope::~InferenceScope() {
  if (bound_ != nullptr) {
    t_active_arena = nullptr;
  }
}

namespace internal {

InferenceArena* ActiveInferenceArena() { return t_active_arena; }

}  // namespace internal

}  // namespace ag
}  // namespace dbg4eth
