#include "graph/sampling.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbg4eth {
namespace graph {

namespace {

struct PeerStats {
  double total_value = 0.0;
  int count = 0;
  double avg() const { return count > 0 ? total_value / count : 0.0; }
};

/// Per-thread scratch reused across SampleSubgraph calls. The cold serving
/// path samples one subgraph per request, and per-call hash sets (selected
/// nodes, local index map, per-node peer aggregation) dominated its cost: a
/// 48-node neighborhood touches thousands of incident transactions.
/// Epoch-stamped marker arrays over the ledger's account id space make
/// every membership test one indexed load; bumping the epoch empties a
/// "set" in O(1), so the arrays are reused across calls without clearing.
struct SamplingScratch {
  /// Account id -> selected; local_index holds its position in `nodes`.
  std::vector<uint64_t> selected_epoch;
  std::vector<int> local_index;
  std::vector<uint64_t> peer_epoch;  ///< Account id -> seen by CollectPeers.
  std::vector<int> peer_slot;
  uint64_t epoch = 0;

  /// Grows the marker arrays to the ledger's account id space. Stale
  /// entries keep old epochs (never equal to a fresh one), so no clearing
  /// is needed.
  void Prepare(size_t num_accounts) {
    if (selected_epoch.size() < num_accounts) {
      selected_epoch.resize(num_accounts, 0);
      local_index.resize(num_accounts, 0);
      peer_epoch.resize(num_accounts, 0);
      peer_slot.resize(num_accounts, 0);
    }
  }
};

SamplingScratch* ThreadScratch() {
  thread_local SamplingScratch scratch;
  return &scratch;
}

/// Counterparty aggregates for one account in first-touch order, read from
/// the ledger's counterparty index without loading any transaction (the
/// order does not matter downstream: the ranking comparator is a strict
/// total order with the account id as final tiebreak).
std::vector<std::pair<eth::AccountId, PeerStats>> CollectPeers(
    const eth::Ledger& ledger, eth::AccountId node,
    SamplingScratch* scratch) {
  const uint64_t epoch = ++scratch->epoch;
  std::vector<std::pair<eth::AccountId, PeerStats>> peers;
  for (const eth::Counterparty& entry : ledger.CounterpartiesOf(node)) {
    const eth::AccountId peer = entry.peer;
    if (peer == node) continue;
    if (scratch->peer_epoch[peer] != epoch) {
      scratch->peer_epoch[peer] = epoch;
      scratch->peer_slot[peer] = static_cast<int>(peers.size());
      peers.push_back({peer, PeerStats{}});
    }
    PeerStats& st = peers[scratch->peer_slot[peer]].second;
    st.total_value += entry.value;
    ++st.count;
  }
  return peers;
}

/// Rank order of Section III-B1: average transaction value descending,
/// ties by total value, then by account id.
bool RanksBefore(const std::pair<eth::AccountId, PeerStats>& a,
                 const std::pair<eth::AccountId, PeerStats>& b) {
  if (a.second.avg() != b.second.avg()) return a.second.avg() > b.second.avg();
  if (a.second.total_value != b.second.total_value) {
    return a.second.total_value > b.second.total_value;
  }
  return a.first < b.first;
}

}  // namespace

Result<eth::TxSubgraph> SampleSubgraph(const eth::Ledger& ledger,
                                       eth::AccountId center,
                                       const SamplingConfig& config) {
  if (config.hops < 1 || config.top_k < 1 || config.max_nodes < 2) {
    return Status::InvalidArgument("invalid sampling config");
  }
  if (center < 0 ||
      center >= static_cast<eth::AccountId>(ledger.accounts().size())) {
    return Status::InvalidArgument("center id out of range");
  }
  if (ledger.TransactionsOf(center).empty()) {
    return Status::NotFound("center account has no transactions");
  }

  SamplingScratch* scratch = ThreadScratch();
  scratch->Prepare(ledger.accounts().size());

  std::vector<eth::AccountId> nodes = {center};
  const uint64_t selected = ++scratch->epoch;
  scratch->selected_epoch[center] = selected;
  scratch->local_index[center] = 0;
  std::vector<eth::AccountId> frontier = {center};

  for (int hop = 0; hop < config.hops; ++hop) {
    std::vector<eth::AccountId> next_frontier;
    for (eth::AccountId v : frontier) {
      auto ranked = CollectPeers(ledger, v, scratch);
      // The node's budget is its top K peers, members already selected
      // included. The order is total, so sorting only that prefix gives
      // the same prefix as a full sort.
      const auto top =
          ranked.begin() + std::min<size_t>(config.top_k, ranked.size());
      std::partial_sort(ranked.begin(), top, ranked.end(), RanksBefore);
      for (auto it = ranked.begin(); it != top; ++it) {
        const eth::AccountId peer = it->first;
        if (scratch->selected_epoch[peer] == selected) continue;
        if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
        scratch->selected_epoch[peer] = selected;
        scratch->local_index[peer] = static_cast<int>(nodes.size());
        nodes.push_back(peer);
        next_frontier.push_back(peer);
      }
      if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }

  eth::TxSubgraph sub;
  sub.nodes = nodes;
  sub.center_index = 0;
  sub.center_class = ledger.accounts()[center].cls;
  sub.is_contract.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    sub.is_contract[i] =
        ledger.accounts()[nodes[i]].kind == eth::AccountKind::kContract;
  }
  // Induced transactions: every ledger tx with both endpoints selected.
  // Each is listed under both endpoints (a self-transfer once, under
  // itself) and emitted once, from whichever endpoint comes first in
  // `nodes`; only emitted transactions are loaded.
  for (size_t vi = 0; vi < nodes.size(); ++vi) {
    const std::vector<int>& incident = ledger.TransactionsOf(nodes[vi]);
    const std::vector<eth::Counterparty>& peers =
        ledger.CounterpartiesOf(nodes[vi]);
    for (size_t i = 0; i < peers.size(); ++i) {
      const eth::AccountId peer = peers[i].peer;
      if (scratch->selected_epoch[peer] != selected ||
          scratch->local_index[peer] < static_cast<int>(vi)) {
        continue;
      }
      const eth::Transaction& tx = ledger.transactions()[incident[i]];
      eth::LocalTransaction lt;
      lt.src = scratch->local_index[tx.from];
      lt.dst = scratch->local_index[tx.to];
      lt.value = tx.value;
      lt.timestamp = tx.timestamp;
      lt.gas_price = tx.gas_price;
      lt.gas_used = tx.gas_used;
      lt.is_contract_call = tx.is_contract_call;
      sub.txs.push_back(lt);
    }
  }
  std::sort(sub.txs.begin(), sub.txs.end(),
            [](const eth::LocalTransaction& a, const eth::LocalTransaction& b) {
              return a.timestamp < b.timestamp;
            });
  return sub;
}

}  // namespace graph
}  // namespace dbg4eth
