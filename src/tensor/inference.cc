#include "tensor/inference.h"

#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dbg4eth {
namespace ag {
namespace {

thread_local InferenceArena* t_active_arena = nullptr;

}  // namespace

std::shared_ptr<internal::TensorNode> InferenceArena::MakeValueNode(
    Matrix value) {
  ++pass_stats_.nodes;
  if (cursor_ == nodes_.size()) {
    nodes_.push_back(std::make_shared<internal::TensorNode>());
    ++pass_stats_.fresh_nodes;
  }
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
  for (size_t i = 0; i < cursor_; ++i) {
    std::shared_ptr<internal::TensorNode>& node = nodes_[i];
    if (node.use_count() > 1) {
      // A caller still holds a handle from the previous pass (e.g. a
      // returned embedding). Abandon the node to its holders and put a
      // fresh one in the pool slot so their value stays intact.
      node = std::make_shared<internal::TensorNode>();
      ++pass_stats_.fresh_nodes;
      continue;
    }
    std::vector<double> buf = node->value.TakeData();
    if (buf.capacity() > 0) {
      free_buffers_.emplace(buf.capacity(), std::move(buf));
    }
    node->grad = Matrix();
    node->requires_grad = false;
  }
  cursor_ = 0;
  pass_stats_ = PassStats();
}

std::vector<double> InferenceArena::AcquireBuffer(size_t n) {
  ++pass_stats_.buffers;
  auto it = free_buffers_.lower_bound(n);
  if (it != free_buffers_.end()) {
    std::vector<double> buf = std::move(it->second);
    free_buffers_.erase(it);
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
