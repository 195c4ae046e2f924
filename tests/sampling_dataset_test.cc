#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "graph/sampling.h"

namespace dbg4eth {
namespace {

/// The sampler as it was before the counterparty index: it loads every
/// incident transaction to find its counterparty, fully sorts each node's
/// peers, and dedups induced transactions by transaction id. The indexed
/// sampler must reproduce its output exactly.
eth::TxSubgraph ReferenceSampleSubgraph(const eth::Ledger& ledger,
                                        eth::AccountId center,
                                        const graph::SamplingConfig& config) {
  struct Peer {
    eth::AccountId id;
    double total_value = 0.0;
    int count = 0;
    double avg() const { return total_value / count; }
  };
  std::vector<eth::AccountId> nodes = {center};
  std::unordered_set<eth::AccountId> selected = {center};
  std::vector<eth::AccountId> frontier = {center};
  for (int hop = 0; hop < config.hops; ++hop) {
    std::vector<eth::AccountId> next_frontier;
    for (eth::AccountId v : frontier) {
      std::vector<Peer> ranked;
      std::unordered_map<eth::AccountId, size_t> slot;
      for (int idx : ledger.TransactionsOf(v)) {
        const eth::Transaction& tx = ledger.transactions()[idx];
        const eth::AccountId peer = tx.from == v ? tx.to : tx.from;
        if (peer == v) continue;
        auto [it, fresh] = slot.try_emplace(peer, ranked.size());
        if (fresh) ranked.push_back(Peer{peer});
        ranked[it->second].total_value += tx.value;
        ++ranked[it->second].count;
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const Peer& a, const Peer& b) {
                  if (a.avg() != b.avg()) return a.avg() > b.avg();
                  if (a.total_value != b.total_value) {
                    return a.total_value > b.total_value;
                  }
                  return a.id < b.id;
                });
      int taken = 0;
      for (const Peer& peer : ranked) {
        if (taken >= config.top_k) break;
        ++taken;
        if (selected.count(peer.id)) continue;
        if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
        selected.insert(peer.id);
        nodes.push_back(peer.id);
        next_frontier.push_back(peer.id);
      }
      if (static_cast<int>(nodes.size()) >= config.max_nodes) break;
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }
  std::unordered_map<eth::AccountId, int> local;
  for (size_t i = 0; i < nodes.size(); ++i) {
    local[nodes[i]] = static_cast<int>(i);
  }
  eth::TxSubgraph sub;
  sub.nodes = nodes;
  sub.center_class = ledger.accounts()[center].cls;
  for (eth::AccountId id : nodes) {
    sub.is_contract.push_back(ledger.accounts()[id].kind ==
                              eth::AccountKind::kContract);
  }
  std::unordered_set<int> seen;
  for (eth::AccountId v : nodes) {
    for (int idx : ledger.TransactionsOf(v)) {
      if (!seen.insert(idx).second) continue;
      const eth::Transaction& tx = ledger.transactions()[idx];
      if (!local.count(tx.from) || !local.count(tx.to)) continue;
      eth::LocalTransaction lt;
      lt.src = local[tx.from];
      lt.dst = local[tx.to];
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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Field-by-field equality, doubles compared by bit pattern (memcmp would
/// also compare LocalTransaction's padding).
void ExpectSameSubgraph(const eth::TxSubgraph& got,
                        const eth::TxSubgraph& want, eth::AccountId center) {
  SCOPED_TRACE("center " + std::to_string(center));
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.center_index, want.center_index);
  EXPECT_EQ(got.center_class, want.center_class);
  EXPECT_EQ(got.is_contract, want.is_contract);
  ASSERT_EQ(got.txs.size(), want.txs.size());
  for (size_t i = 0; i < got.txs.size(); ++i) {
    SCOPED_TRACE("tx " + std::to_string(i));
    EXPECT_EQ(got.txs[i].src, want.txs[i].src);
    EXPECT_EQ(got.txs[i].dst, want.txs[i].dst);
    EXPECT_EQ(Bits(got.txs[i].value), Bits(want.txs[i].value));
    EXPECT_EQ(Bits(got.txs[i].timestamp), Bits(want.txs[i].timestamp));
    EXPECT_EQ(Bits(got.txs[i].gas_price), Bits(want.txs[i].gas_price));
    EXPECT_EQ(Bits(got.txs[i].gas_used), Bits(want.txs[i].gas_used));
    EXPECT_EQ(got.txs[i].is_contract_call, want.txs[i].is_contract_call);
  }
}

/// Samples every account of `ledger` with both samplers; returns how many
/// subgraphs were compared.
int ExpectSamplersAgreeOnEveryAccount(const eth::Ledger& ledger,
                                      const graph::SamplingConfig& config) {
  int compared = 0;
  for (const eth::Account& account : ledger.accounts()) {
    auto sampled = graph::SampleSubgraph(ledger, account.id, config);
    if (ledger.TransactionsOf(account.id).empty()) {
      EXPECT_EQ(sampled.status().code(), StatusCode::kNotFound);
      continue;
    }
    EXPECT_TRUE(sampled.ok()) << sampled.status().ToString();
    if (!sampled.ok()) continue;
    ExpectSameSubgraph(sampled.ValueOrDie(),
                       ReferenceSampleSubgraph(ledger, account.id, config),
                       account.id);
    ++compared;
  }
  return compared;
}

eth::LedgerConfig TestLedgerConfig() {
  eth::LedgerConfig config;
  config.num_normal = 600;
  config.num_exchange = 8;
  config.num_ico_wallet = 8;
  config.num_mining = 6;
  config.num_phish_hack = 10;
  config.num_bridge = 6;
  config.num_defi = 6;
  config.duration_days = 90.0;
  config.seed = 321;
  return config;
}

class SamplingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ledger_ = new eth::LedgerSimulator(TestLedgerConfig());
    ASSERT_TRUE(ledger_->Generate().ok());
  }
  static void TearDownTestSuite() {
    delete ledger_;
    ledger_ = nullptr;
  }
  static eth::LedgerSimulator* ledger_;
};

eth::LedgerSimulator* SamplingTest::ledger_ = nullptr;

TEST_F(SamplingTest, RejectsBadConfig) {
  graph::SamplingConfig bad;
  bad.top_k = 0;
  auto r = graph::SampleSubgraph(*ledger_, 1, bad);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  graph::SamplingConfig ok;
  auto r2 = graph::SampleSubgraph(*ledger_, -5, ok);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SamplingTest, CenterIsFirstNode) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  auto r = graph::SampleSubgraph(*ledger_, exchanges[0], config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const eth::TxSubgraph& sub = r.ValueOrDie();
  EXPECT_EQ(sub.center_index, 0);
  EXPECT_EQ(sub.nodes[0], exchanges[0]);
  EXPECT_EQ(sub.center_class, eth::AccountClass::kExchange);
}

TEST_F(SamplingTest, NodesAreUniqueAndTxsLocal) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  config.top_k = 8;
  auto sub = graph::SampleSubgraph(*ledger_, exchanges[1], config).ValueOrDie();
  std::unordered_set<eth::AccountId> unique(sub.nodes.begin(),
                                            sub.nodes.end());
  EXPECT_EQ(unique.size(), sub.nodes.size());
  ASSERT_EQ(sub.is_contract.size(), sub.nodes.size());
  for (const auto& tx : sub.txs) {
    EXPECT_GE(tx.src, 0);
    EXPECT_LT(tx.src, sub.num_nodes());
    EXPECT_GE(tx.dst, 0);
    EXPECT_LT(tx.dst, sub.num_nodes());
  }
  // Transactions sorted by timestamp.
  for (size_t i = 1; i < sub.txs.size(); ++i) {
    EXPECT_LE(sub.txs[i - 1].timestamp, sub.txs[i].timestamp);
  }
}

TEST_F(SamplingTest, RespectsMaxNodes) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig config;
  config.top_k = 50;
  config.max_nodes = 30;
  auto sub = graph::SampleSubgraph(*ledger_, exchanges[0], config).ValueOrDie();
  EXPECT_LE(sub.num_nodes(), 30);
}

TEST_F(SamplingTest, TopKLimitsGrowth) {
  const auto exchanges = ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  graph::SamplingConfig small;
  small.top_k = 3;
  graph::SamplingConfig big;
  big.top_k = 15;
  auto sub_small =
      graph::SampleSubgraph(*ledger_, exchanges[2], small).ValueOrDie();
  auto sub_big =
      graph::SampleSubgraph(*ledger_, exchanges[2], big).ValueOrDie();
  EXPECT_LT(sub_small.num_nodes(), sub_big.num_nodes());
  // 2 hops, K=3: at most 1 + 3 + 9 nodes.
  EXPECT_LE(sub_small.num_nodes(), 13);
}

TEST_F(SamplingTest, HighValuePeersPreferred) {
  // The top-1 sampled neighbor of a center must be its max-average-value
  // counterparty.
  const auto miners = ledger_->AccountsOfClass(eth::AccountClass::kMining);
  graph::SamplingConfig config;
  config.hops = 1;
  config.top_k = 1;
  auto sub = graph::SampleSubgraph(*ledger_, miners[0], config).ValueOrDie();
  ASSERT_EQ(sub.num_nodes(), 2);

  // Recompute best average by brute force.
  std::unordered_map<eth::AccountId, std::pair<double, int>> agg;
  for (int idx : ledger_->TransactionsOf(miners[0])) {
    const auto& tx = ledger_->transactions()[idx];
    const eth::AccountId peer = tx.from == miners[0] ? tx.to : tx.from;
    if (peer == miners[0]) continue;
    agg[peer].first += tx.value;
    agg[peer].second += 1;
  }
  double best_avg = -1.0;
  for (const auto& [peer, stats] : agg) {
    best_avg = std::max(best_avg, stats.first / stats.second);
  }
  const eth::AccountId chosen = sub.nodes[1];
  EXPECT_NEAR(agg[chosen].first / agg[chosen].second, best_avg, 1e-9);
}

TEST_F(SamplingTest, MatchesTheFullScanReferenceOnEveryAccount) {
  graph::SamplingConfig serving;  // The serving config of the benchmark.
  serving.top_k = 6;
  serving.max_nodes = 48;
  const int accounts = static_cast<int>(ledger_->accounts().size());
  EXPECT_GT(ExpectSamplersAgreeOnEveryAccount(*ledger_, serving),
            accounts / 2);
  EXPECT_GT(ExpectSamplersAgreeOnEveryAccount(*ledger_, {}), accounts / 2);
}

TEST_F(SamplingTest, MatchesTheFullScanReferenceAfterAppends) {
  // Appends between existing accounts, every fifth a self-transfer and
  // some sharing a timestamp, so the index is extended by Append rather
  // than built in one pass.
  eth::AppendableLedger grown(*ledger_);
  Rng rng(17);
  const int num_accounts = static_cast<int>(grown.accounts().size());
  double timestamp = grown.transactions().back().timestamp;
  int self_transfers = 0;
  for (int i = 0; i < 100; ++i) {
    eth::Transaction tx;
    tx.from = rng.UniformInt(num_accounts);
    tx.to = i % 5 == 0 ? tx.from : rng.UniformInt(num_accounts);
    self_transfers += tx.to == tx.from;
    tx.value = rng.LogNormal(0.0, 1.5);
    if (i % 3 != 0) timestamp += rng.Uniform(1.0, 60.0);
    tx.timestamp = timestamp;
    ASSERT_TRUE(grown.Append(tx).ok());
  }
  ASSERT_GE(self_transfers, 20);
  graph::SamplingConfig serving;
  serving.top_k = 6;
  serving.max_nodes = 48;
  EXPECT_GT(ExpectSamplersAgreeOnEveryAccount(grown, serving), 0);
  EXPECT_GT(ExpectSamplersAgreeOnEveryAccount(grown, {}), 0);
}

class DatasetTest : public SamplingTest {};

TEST_F(DatasetTest, BuildBinaryDataset) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kPhishHack;
  config.max_positives = 6;
  config.num_time_slices = 5;
  config.sampling.top_k = 6;
  auto result = eth::BuildDataset(*ledger_, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ds = result.ValueOrDie();
  EXPECT_EQ(ds.target, eth::AccountClass::kPhishHack);
  EXPECT_GT(ds.num_positives(), 0);
  EXPECT_LE(ds.num_positives(), 6);
  // Roughly balanced.
  EXPECT_NEAR(ds.num_positives(), ds.num_graphs() - ds.num_positives(), 2);
  EXPECT_GT(ds.avg_nodes(), 3.0);
  EXPECT_GT(ds.avg_edges(), 2.0);
}

TEST_F(DatasetTest, InstancesCarryBothGraphViews) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kBridge;
  config.max_positives = 4;
  config.num_time_slices = 4;
  config.sampling.top_k = 5;
  auto ds = eth::BuildDataset(*ledger_, config).ValueOrDie();
  for (const auto& inst : ds.instances) {
    EXPECT_EQ(inst.ldg.size(), 4u);
    EXPECT_EQ(inst.gsg.node_features.rows(), inst.subgraph.num_nodes());
    EXPECT_EQ(inst.gsg.node_features.cols(), 15);
    EXPECT_EQ(inst.gsg.edge_features.cols(), 2);
    int ldg_edges = 0;
    for (const auto& slice : inst.ldg) {
      EXPECT_EQ(slice.num_nodes, inst.gsg.num_nodes);
      if (slice.num_edges() > 0) {
        EXPECT_EQ(slice.edge_features.cols(), 1);
      }
      ldg_edges += slice.num_edges();
    }
    // Slicing can only split merged edges further.
    EXPECT_GE(ldg_edges, inst.gsg.num_edges());
  }
}

TEST_F(DatasetTest, RejectsNormalTarget) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kNormal;
  auto result = eth::BuildDataset(*ledger_, config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetTest, StandardizeUsesFitSplit) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kExchange;
  config.max_positives = 5;
  config.sampling.top_k = 5;
  auto ds = eth::BuildDataset(*ledger_, config).ValueOrDie();
  ASSERT_GE(ds.num_graphs(), 4);
  std::vector<int> fit = {0, 1};
  eth::StandardizeDataset(&ds, fit);
  // Features are finite and LDG shares the standardized matrix.
  for (const auto& inst : ds.instances) {
    EXPECT_TRUE(inst.gsg.node_features.AllFinite());
    EXPECT_TRUE(AlmostEqual(inst.gsg.node_features,
                            inst.ldg.front().node_features));
  }
}

TEST_F(DatasetTest, DeterministicUnderSeed) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kMining;
  config.max_positives = 4;
  config.sampling.top_k = 5;
  auto a = eth::BuildDataset(*ledger_, config).ValueOrDie();
  auto b = eth::BuildDataset(*ledger_, config).ValueOrDie();
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  for (int i = 0; i < a.num_graphs(); ++i) {
    EXPECT_EQ(a.instances[i].label, b.instances[i].label);
    EXPECT_EQ(a.instances[i].subgraph.nodes, b.instances[i].subgraph.nodes);
  }
}

}  // namespace
}  // namespace dbg4eth
