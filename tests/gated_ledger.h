#ifndef DBG4ETH_TESTS_GATED_LEDGER_H_
#define DBG4ETH_TESTS_GATED_LEDGER_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "eth/ledger_base.h"

namespace dbg4eth {

/// \brief A ledger that lets a serving test hold one cold pass inside a
/// worker, and make another one throw.
///
/// Every read forwards to the wrapped ledger, except:
///   - While the gate is closed, the first `TransactionsOf(gate_id)` call
///     blocks until `Open()`. The sampler reads the centre account's
///     transactions first, so scoring `gate_id` parks its worker at the
///     start of the pass, after the model snapshot; `WaitUntilEntered()`
///     returns once it is parked. Later calls pass straight through, so
///     other passes whose neighbourhood includes `gate_id` keep running.
///   - `TransactionsOf(poison_id)` always throws std::runtime_error.
///
/// `CounterpartiesOf` always forwards: the sampler's first index read stays
/// `TransactionsOf(center)`, so the gate still parks a pass at its start.
///
/// The gate starts closed; `Close()` re-arms it for one more call. A held
/// call gives up after 60 s, so a failing test cannot hang the suite.
class GatedLedger : public eth::Ledger {
 public:
  GatedLedger(const eth::Ledger& base, eth::AccountId gate_id,
              eth::AccountId poison_id = -1)
      : base_(base), gate_id_(gate_id), poison_id_(poison_id) {}

  const std::vector<eth::Account>& accounts() const override {
    return base_.accounts();
  }
  const std::vector<eth::Transaction>& transactions() const override {
    return base_.transactions();
  }
  eth::AccountId coinbase_id() const override { return base_.coinbase_id(); }

  const std::vector<int>& TransactionsOf(eth::AccountId id) const override {
    if (id == poison_id_) {
      throw std::runtime_error("poisoned account " + std::to_string(id));
    }
    if (id == gate_id_) {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;
        entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lock, kHoldLimit, [this] { return open_; });
      }
    }
    return base_.TransactionsOf(id);
  }

  const std::vector<eth::Counterparty>& CounterpartiesOf(
      eth::AccountId id) const override {
    return base_.CounterpartiesOf(id);
  }

  /// Releases the held call, if any.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Re-arms the gate: the next TransactionsOf(gate_id) blocks until
  /// Open().
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    armed_ = true;
    entered_ = false;
  }

  /// Blocks until a call is held at the gate; false after 60 s.
  bool WaitUntilEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kHoldLimit, [this] { return entered_; });
  }

 private:
  static constexpr std::chrono::seconds kHoldLimit{60};

  const eth::Ledger& base_;
  const eth::AccountId gate_id_;
  const eth::AccountId poison_id_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = true;
  mutable bool entered_ = false;
  bool open_ = false;
};

}  // namespace dbg4eth

#endif  // DBG4ETH_TESTS_GATED_LEDGER_H_
