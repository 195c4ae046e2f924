#ifndef DBG4ETH_TENSOR_INFERENCE_H_
#define DBG4ETH_TENSOR_INFERENCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dbg4eth {
namespace ag {

/// \brief Scratch arena of one tape-free forward pass (per thread).
///
/// Serving never calls Backward(), yet every op used to pay the full
/// reverse-mode toll: a heap-allocated TensorNode, shared_ptr bookkeeping
/// for parents, and a std::function backward closure — then a fresh value
/// buffer on top. Under an active InferenceScope the ops in ops.cc instead
/// draw both from this arena:
///
///  - value-only nodes come from a pooled vector of TensorNodes (no
///    parents, no backward_fn, requires_grad = false), reused pass after
///    pass without touching the allocator;
///  - value buffers come from a free list bucketed by capacity (best fit:
///    the smallest capacity >= the request). A buffer returns to it as
///    soon as the last Tensor handle to its node drops: the arena owns
///    every pooled node, so a use_count of 1 means no handle is left, and
///    each buffer request first reclaims the buffers of such nodes. A pass
///    therefore holds only its live activations, not every activation it
///    ever made.
///
/// Lifetime rules:
///  - A Tensor produced under a scope keeps its storage while a handle to
///    it lives. A handle kept past its scope stays valid until the *next*
///    BeginPass() on the same thread (scopes call it on entry), which
///    abandons the node to its holders (a fresh node takes its pool slot):
///    held tensors never dangle, they just forgo reuse.
///  - A `const Matrix&` or pointer into a tensor's value must not outlive
///    the handle it was read through: once the last handle drops, the next
///    op on this thread may hand the buffer to another activation. Under
///    AddressSanitizer free-list buffers are poisoned, so such a stale
///    read fails loudly instead of returning another activation's values.
///  - A tensor produced under a scope must not be dropped on another
///    thread while this thread's pass is live: the reclaim check reads the
///    handle count without synchronizing with other threads.
///
/// Not thread-safe; use InferenceArena::ThreadLocal().
class InferenceArena {
 public:
  /// Reuse accounting for one forward pass (reset by BeginPass).
  struct PassStats {
    uint64_t nodes = 0;          ///< Value nodes handed out.
    uint64_t fresh_nodes = 0;    ///< Pool growth (allocator hits).
    uint64_t buffers = 0;        ///< Value buffers handed out.
    uint64_t fresh_buffers = 0;  ///< Buffers that missed the free list.
    uint64_t fresh_bytes = 0;    ///< Bytes newly allocated for buffers.
  };

  InferenceArena() = default;
  InferenceArena(const InferenceArena&) = delete;
  InferenceArena& operator=(const InferenceArena&) = delete;

  /// Pooled value-only node holding `value`. No parents, no backward.
  /// `value` must own a buffer from this arena (Zeros, Uninit, CopyOf):
  /// the buffer moves into the free list when the node's last handle
  /// drops, so a buffer allocated elsewhere would grow the pool by one
  /// buffer per pass.
  std::shared_ptr<internal::TensorNode> PooledNode(Matrix value);

  /// Zero-filled rows x cols buffer (for accumulate-style kernels and
  /// masked writers that rely on zero initialization).
  Matrix Zeros(int rows, int cols);
  /// Buffer whose every entry the caller overwrites; contents are
  /// unspecified (recycled activations).
  Matrix Uninit(int rows, int cols);
  /// Buffer initialized as a copy of `src`.
  Matrix CopyOf(const Matrix& src);

  /// Reclaims the previous pass: the buffers its nodes still hold return
  /// to the free list (nodes a caller still holds are abandoned to it),
  /// the node cursor rewinds, and pass stats reset. Called by
  /// InferenceScope on entry.
  void BeginPass();

  /// Stats of the pass in flight (read after the forward, before the next
  /// BeginPass).
  const PassStats& pass_stats() const { return pass_stats_; }
  /// Total bytes of value-buffer storage this arena owns (free list plus
  /// buffers currently held by pooled nodes).
  size_t owned_bytes() const { return owned_bytes_; }
  /// Pooled node count (high-water mark across passes).
  size_t pooled_nodes() const { return nodes_.size(); }

  /// The calling thread's arena (created on first use).
  static InferenceArena* ThreadLocal();

 private:
  /// Free buffers of one capacity, reused last in, first out.
  struct Bucket {
    size_t capacity;
    std::vector<std::vector<double>> buffers;
  };

  std::vector<Bucket>::iterator FirstBucketOfAtLeast(size_t capacity);
  std::vector<double> AcquireBuffer(size_t n);
  /// Moves the buffer of every node of this pass whose last handle has
  /// dropped into the free list.
  void ReclaimDropped();
  /// Moves an unreferenced node's buffer into the free list and clears any
  /// gradient a caller attached to it.
  void Recycle(internal::TensorNode* node);

  std::vector<std::shared_ptr<internal::TensorNode>> nodes_;
  size_t cursor_ = 0;
  /// Indices (below cursor_) of this pass's nodes that still hold their
  /// value: the live set, short because intermediates die per statement.
  std::vector<size_t> live_;
  /// Sorted by capacity; a bucket stays (empty) once its buffers are out.
  std::vector<Bucket> buckets_;
  PassStats pass_stats_;
  size_t owned_bytes_ = 0;
};

/// \brief RAII activation of the tape-free fast path on this thread.
///
/// While a scope is active, every op in ops.cc (and every non-parameter
/// Tensor constructed) computes its value only — no autograd nodes, no
/// parent edges, no backward closures — drawing storage from the bound
/// arena. Values are bit-identical to the tape forward. Nested scopes are
/// no-ops (the outermost scope owns the pass). A result's storage lives as
/// long as a handle to it, and at most until the next scope on this
/// thread; see InferenceArena for the lifetime and thread rules.
///
/// Do NOT use around anything that needs gradients: Backward() on a
/// tensor built under a scope sees a leaf and propagates nothing.
class InferenceScope {
 public:
  /// Binds the calling thread's arena (InferenceArena::ThreadLocal),
  /// unless a scope is already active on this thread.
  InferenceScope();
  /// Same, with an explicit arena (tests).
  explicit InferenceScope(InferenceArena* arena);
  ~InferenceScope();

  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

  /// True when this scope actually bound the arena (the outermost one).
  bool bound() const { return bound_ != nullptr; }

 private:
  InferenceArena* bound_ = nullptr;
};

namespace internal {

/// Arena bound by the innermost active InferenceScope on this thread, or
/// nullptr when the tape path is in effect.
InferenceArena* ActiveInferenceArena();

}  // namespace internal

}  // namespace ag
}  // namespace dbg4eth

#endif  // DBG4ETH_TENSOR_INFERENCE_H_
