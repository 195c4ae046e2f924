#ifndef DBG4ETH_ETH_APPENDABLE_LEDGER_H_
#define DBG4ETH_ETH_APPENDABLE_LEDGER_H_

#include <vector>

#include "common/status.h"
#include "eth/incident_index.h"
#include "eth/ledger_base.h"

namespace dbg4eth {
namespace eth {

/// \brief Growable ledger: a snapshot of another ledger that accepts
/// appended transactions, maintaining the timestamp order and per-account
/// index invariants of the Ledger interface.
///
/// This is the serving-side ingestion shape — a chain keeps producing
/// blocks after the model is trained, and the service observes growth via
/// InferenceService::RefreshLedgerHeight. The simulator and CsvLedger are
/// both immutable after construction, so scenarios that need the ledger
/// height to advance (degraded-mode tests, benches, live pipelines) wrap
/// one in an AppendableLedger.
///
/// Not internally synchronized: appends must not race reads. Quiesce the
/// service (or serialize externally), Append, then RefreshLedgerHeight.
class AppendableLedger : public Ledger {
 public:
  /// Copies `base`'s accounts and transactions and rebuilds the index.
  explicit AppendableLedger(const Ledger& base);

  /// Appends one transaction. InvalidArgument when an endpoint is not an
  /// account of this ledger or the timestamp would break the sort order.
  Status Append(const Transaction& tx);

  const std::vector<Account>& accounts() const override { return accounts_; }
  const std::vector<Transaction>& transactions() const override {
    return transactions_;
  }
  /// Both indexes hold no entries for an id outside the account table.
  const std::vector<int>& TransactionsOf(AccountId id) const override;
  const std::vector<Counterparty>& CounterpartiesOf(
      AccountId id) const override;
  AccountId coinbase_id() const override { return coinbase_id_; }

 private:
  bool IsAccount(AccountId id) const {
    return id >= 0 && id < static_cast<AccountId>(accounts_.size());
  }

  std::vector<Account> accounts_;
  std::vector<Transaction> transactions_;
  IncidentIndex index_;
  std::vector<int> no_transactions_;
  std::vector<Counterparty> no_counterparties_;
  AccountId coinbase_id_ = -1;
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_APPENDABLE_LEDGER_H_
