#include "eth/appendable_ledger.h"

#include "common/string_util.h"

namespace dbg4eth {
namespace eth {

AppendableLedger::AppendableLedger(const Ledger& base)
    : accounts_(base.accounts()),
      transactions_(base.transactions()),
      index_(accounts_.size(), transactions_),
      coinbase_id_(base.coinbase_id()) {}

Status AppendableLedger::Append(const Transaction& tx) {
  if (!IsAccount(tx.from) || !IsAccount(tx.to)) {
    return Status::InvalidArgument(
        StrFormat("transaction endpoints (%d -> %d) outside the account "
                  "table of size %zu",
                  tx.from, tx.to, accounts_.size()));
  }
  if (!transactions_.empty() &&
      tx.timestamp < transactions_.back().timestamp) {
    return Status::InvalidArgument(StrFormat(
        "appended timestamp %.3f precedes ledger tip %.3f", tx.timestamp,
        transactions_.back().timestamp));
  }
  index_.Add(static_cast<int>(transactions_.size()), tx);
  transactions_.push_back(tx);
  return Status::OK();
}

const std::vector<int>& AppendableLedger::TransactionsOf(AccountId id) const {
  return IsAccount(id) ? index_.TransactionsOf(id) : no_transactions_;
}

const std::vector<Counterparty>& AppendableLedger::CounterpartiesOf(
    AccountId id) const {
  return IsAccount(id) ? index_.CounterpartiesOf(id) : no_counterparties_;
}

}  // namespace eth
}  // namespace dbg4eth
