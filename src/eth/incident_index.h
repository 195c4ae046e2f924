#ifndef DBG4ETH_ETH_INCIDENT_INDEX_H_
#define DBG4ETH_ETH_INCIDENT_INDEX_H_

#include <cstddef>
#include <vector>

#include "eth/types.h"

namespace dbg4eth {
namespace eth {

/// \brief Per-account incident index behind Ledger::TransactionsOf and
/// Ledger::CounterpartiesOf, built the same way for every ledger.
///
/// For each account it keeps the positions (into the ledger's transaction
/// vector) of every transaction the account sends or receives, in position
/// order, and, entry for entry, that transaction's counterparty and value.
/// A self-transfer is one entry whose peer is the account itself. An
/// endpoint outside [0, num_accounts) is not indexed. Accessors do not
/// check ids: each ledger applies its own out-of-range policy.
class IncidentIndex {
 public:
  IncidentIndex() = default;

  /// Indexes `txs` in one counted pass: degrees first, then each account's
  /// two arrays reserved to exactly its degree, then filled.
  IncidentIndex(size_t num_accounts, const std::vector<Transaction>& txs);

  /// Indexes `tx` as position `index`, which must follow every position
  /// indexed so far.
  void Add(int index, const Transaction& tx);

  const std::vector<int>& TransactionsOf(AccountId id) const {
    return txs_[id];
  }
  const std::vector<Counterparty>& CounterpartiesOf(AccountId id) const {
    return peers_[id];
  }

 private:
  std::vector<std::vector<int>> txs_;
  std::vector<std::vector<Counterparty>> peers_;
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_INCIDENT_INDEX_H_
