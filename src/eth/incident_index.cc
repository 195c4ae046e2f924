#include "eth/incident_index.h"

namespace dbg4eth {
namespace eth {

namespace {

bool InRange(AccountId id, size_t num_accounts) {
  return id >= 0 && static_cast<size_t>(id) < num_accounts;
}

}  // namespace

IncidentIndex::IncidentIndex(size_t num_accounts,
                             const std::vector<Transaction>& txs)
    : txs_(num_accounts), peers_(num_accounts) {
  std::vector<size_t> degree(num_accounts, 0);
  for (const Transaction& tx : txs) {
    if (InRange(tx.from, num_accounts)) ++degree[tx.from];
    if (tx.to != tx.from && InRange(tx.to, num_accounts)) ++degree[tx.to];
  }
  for (size_t id = 0; id < num_accounts; ++id) {
    txs_[id].reserve(degree[id]);
    peers_[id].reserve(degree[id]);
  }
  for (size_t i = 0; i < txs.size(); ++i) Add(static_cast<int>(i), txs[i]);
}

void IncidentIndex::Add(int index, const Transaction& tx) {
  if (InRange(tx.from, txs_.size())) {
    txs_[tx.from].push_back(index);
    peers_[tx.from].push_back(Counterparty{tx.to, tx.value});
  }
  if (tx.to != tx.from && InRange(tx.to, txs_.size())) {
    txs_[tx.to].push_back(index);
    peers_[tx.to].push_back(Counterparty{tx.from, tx.value});
  }
}

}  // namespace eth
}  // namespace dbg4eth
