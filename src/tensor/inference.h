#ifndef DBG4ETH_TENSOR_INFERENCE_H_
#define DBG4ETH_TENSOR_INFERENCE_H_

#include <cstdint>
#include <map>
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
///  - value buffers come from a capacity-keyed free list refilled by
///    BeginPass(), which reclaims the previous pass's activations.
///
/// Lifetime rules: every Tensor produced under a scope stays valid until
/// the *next* BeginPass() on the same thread (scopes call it on entry), so
/// a caller may read results after its scope closes but must not hold
/// them across another fast-path call on that thread. A node whose handle
/// is still referenced at reclaim time is abandoned to its holders (a
/// fresh node takes its pool slot) — held tensors never dangle, they just
/// forgo reuse. Not thread-safe; use InferenceArena::ThreadLocal().
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
  /// BeginPass moves it into the free list, so a buffer allocated
  /// elsewhere would grow the pool by one buffer per pass.
  std::shared_ptr<internal::TensorNode> MakeValueNode(Matrix value);

  /// Zero-filled rows x cols buffer (for accumulate-style kernels and
  /// masked writers that rely on zero initialization).
  Matrix Zeros(int rows, int cols);
  /// Buffer whose every entry the caller overwrites; contents are
  /// unspecified (recycled activations).
  Matrix Uninit(int rows, int cols);
  /// Buffer initialized as a copy of `src`.
  Matrix CopyOf(const Matrix& src);

  /// Reclaims the previous pass: value buffers of unreferenced pooled
  /// nodes return to the free list, the node cursor rewinds, and pass
  /// stats reset. Called by InferenceScope on entry.
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
  std::vector<double> AcquireBuffer(size_t n);

  std::vector<std::shared_ptr<internal::TensorNode>> nodes_;
  size_t cursor_ = 0;
  /// Free value buffers keyed by capacity; lower_bound gives best fit.
  std::multimap<size_t, std::vector<double>> free_buffers_;
  PassStats pass_stats_;
  size_t owned_bytes_ = 0;
};

/// \brief RAII activation of the tape-free fast path on this thread.
///
/// While a scope is active, every op in ops.cc (and every non-parameter
/// Tensor constructed) computes its value only — no autograd nodes, no
/// parent edges, no backward closures — drawing storage from the bound
/// arena. Values are bit-identical to the tape forward. Nested scopes are
/// no-ops (the outermost scope owns the pass).
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
