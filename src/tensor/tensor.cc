#include "tensor/tensor.h"

#include <atomic>
#include <unordered_set>

#include "common/logging.h"
#include "tensor/inference.h"

namespace dbg4eth {
namespace ag {

namespace internal {

namespace {

/// The buffer bound by the running Backward(GradientBuffer*) call on this
/// thread, if any.
thread_local GradientBuffer* t_active_gradient_buffer = nullptr;

std::atomic<uint64_t> g_node_allocations{0};

}  // namespace

TensorNode::TensorNode() {
  g_node_allocations.fetch_add(1, std::memory_order_relaxed);
}

uint64_t NodeAllocationCount() {
  return g_node_allocations.load(std::memory_order_relaxed);
}

void TensorNode::EnsureGrad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    grad = Matrix(value.rows(), value.cols());
  }
}

void TensorNode::EnsureZeroedGrad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    grad = Matrix(value.rows(), value.cols());  // Freshly zero-initialized.
  } else {
    grad.Fill(0.0);
  }
}

Matrix& GradAccumTarget(TensorNode* node) {
  GradientBuffer* buffer = t_active_gradient_buffer;
  if (buffer != nullptr && node->is_leaf()) {
    return buffer->Slot(node);
  }
  node->EnsureGrad();
  return node->grad;
}

}  // namespace internal

Matrix& GradientBuffer::Slot(internal::TensorNode* node) {
  auto it = slots_.find(node);
  if (it == slots_.end()) {
    it = slots_
             .emplace(node,
                      Matrix(node->value.rows(), node->value.cols()))
             .first;
  }
  return it->second;
}

void GradientBuffer::ReduceInto() {
  for (auto& [node, grad] : slots_) {
    node->EnsureGrad();
    node->grad.AddInPlace(grad);
  }
}

Tensor::Tensor(Matrix value, bool requires_grad) {
  if (!requires_grad) {
    // Constants built under an active InferenceScope draw a pooled
    // value-only node instead of hitting the allocator. The value is
    // copied into a pool buffer: the node's buffer goes to the free list
    // once its last handle drops, and adopting this caller-allocated one
    // instead would grow the pool by one buffer every pass.
    if (InferenceArena* arena = internal::ActiveInferenceArena()) {
      node_ = arena->PooledNode(arena->CopyOf(value));
      return;
    }
  }
  node_ = std::make_shared<internal::TensorNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->op_name = "leaf";
}

const Matrix& Tensor::value() const {
  DBG4ETH_CHECK(defined());
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  DBG4ETH_CHECK(defined());
  return node_->value;
}

const Matrix& Tensor::grad() const {
  DBG4ETH_CHECK(defined());
  DBG4ETH_CHECK(has_grad()) << "tensor has no gradient";
  return node_->grad;
}

bool Tensor::has_grad() const {
  return defined() && node_->grad.rows() == node_->value.rows() &&
         node_->grad.cols() == node_->value.cols() && !node_->value.empty();
}

bool Tensor::requires_grad() const { return defined() && node_->requires_grad; }

void Tensor::ZeroGrad() {
  DBG4ETH_CHECK(defined());
  node_->EnsureGrad();
  node_->grad.Fill(0.0);
}

void Tensor::Backward(GradientBuffer* buffer) {
  DBG4ETH_CHECK(defined());
  DBG4ETH_CHECK(rows() == 1 && cols() == 1)
      << "Backward() requires a scalar output, got " << rows() << "x"
      << cols();

  // Bind (and on exit restore) this thread's gradient buffer; the ops'
  // backward closures pick it up through internal::GradAccumTarget.
  struct BufferBinding {
    GradientBuffer* prev;
    explicit BufferBinding(GradientBuffer* b)
        : prev(internal::t_active_gradient_buffer) {
      internal::t_active_gradient_buffer = b;
    }
    ~BufferBinding() { internal::t_active_gradient_buffer = prev; }
  } binding(buffer);

  // Topological order via iterative post-order DFS over requires_grad nodes.
  std::vector<internal::TensorNode*> topo;
  std::unordered_set<internal::TensorNode*> visited;
  struct Frame {
    internal::TensorNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (node_->requires_grad) {
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::TensorNode* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Zero grads of all interior (non-leaf) nodes; leaf (parameter) grads
  // accumulate across Backward() calls until the optimizer clears them.
  // Interior nodes are private to the thread that built the tape, so
  // touching them is safe even in buffered mode; shared leaves are left
  // alone when a buffer is bound (their writes go to the buffer).
  for (internal::TensorNode* node : topo) {
    if (node->backward_fn) {
      node->EnsureZeroedGrad();
    } else if (buffer == nullptr) {
      node->EnsureGrad();
    }
  }

  internal::GradAccumTarget(node_.get()).At(0, 0) += 1.0;

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorNode* node = *it;
    if (node->backward_fn) {
      node->backward_fn(node);
    }
  }
}

double Tensor::ScalarValue() const {
  DBG4ETH_CHECK(rows() == 1 && cols() == 1);
  return value().At(0, 0);
}

Tensor Tensor::FromNode(std::shared_ptr<internal::TensorNode> node) {
  Tensor t;
  t.node_ = std::move(node);
  return t;
}

}  // namespace ag
}  // namespace dbg4eth
