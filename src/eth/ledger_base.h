#ifndef DBG4ETH_ETH_LEDGER_BASE_H_
#define DBG4ETH_ETH_LEDGER_BASE_H_

#include <vector>

#include "eth/types.h"

namespace dbg4eth {
namespace eth {

/// \brief Read interface of a transaction ledger: the data source the
/// sampling / dataset pipeline consumes.
///
/// Implementations: LedgerSimulator (synthetic behavioural generator),
/// CsvLedger (transactions exported from a real chain, e.g. an Etherscan
/// dump) and AppendableLedger (a growable copy of another ledger). All
/// three back TransactionsOf and CounterpartiesOf with one IncidentIndex.
class Ledger {
 public:
  virtual ~Ledger() = default;

  virtual const std::vector<Account>& accounts() const = 0;

  /// All transactions, sorted by timestamp.
  virtual const std::vector<Transaction>& transactions() const = 0;

  /// Indices (into transactions()) of every transaction where `id` is
  /// sender or receiver, in timestamp order.
  virtual const std::vector<int>& TransactionsOf(AccountId id) const = 0;

  /// The counterparty and value of each transaction in TransactionsOf(id),
  /// aligned entry for entry with it (same length, same order); the peer
  /// of a self-transfer is `id` itself. The sampler ranks neighbours and
  /// picks induced transactions from these 16-byte entries, and loads a
  /// transaction record only for the transactions it keeps.
  virtual const std::vector<Counterparty>& CounterpartiesOf(
      AccountId id) const = 0;

  /// The block-reward source account, when the ledger has one; -1
  /// otherwise. Excluded from negative sampling pools.
  virtual AccountId coinbase_id() const { return -1; }

  /// All account ids of the given class.
  std::vector<AccountId> AccountsOfClass(AccountClass cls) const {
    std::vector<AccountId> out;
    for (const Account& acc : accounts()) {
      if (acc.cls == cls) out.push_back(acc.id);
    }
    return out;
  }
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_LEDGER_BASE_H_
