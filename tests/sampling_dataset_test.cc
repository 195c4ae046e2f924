#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
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

TEST_F(DatasetTest, FeaturesLiveInTheGsgAndTheFirstSliceOnly) {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kExchange;
  config.max_positives = 5;
  config.num_time_slices = 4;
  config.sampling.top_k = 5;
  auto ds = eth::BuildDataset(*ledger_, config).ValueOrDie();
  ASSERT_GE(ds.num_graphs(), 2);
  auto expect_layout = [&ds](const char* stage) {
    for (const auto& inst : ds.instances) {
      const Matrix& gsg = inst.gsg.node_features;
      const Matrix& first = inst.ldg.front().node_features;
      ASSERT_FALSE(gsg.empty()) << stage;
      ASSERT_EQ(first.rows(), gsg.rows()) << stage;
      ASSERT_EQ(first.cols(), gsg.cols()) << stage;
      EXPECT_EQ(std::memcmp(first.RowPtr(0), gsg.RowPtr(0),
                            gsg.size() * sizeof(double)),
                0)
          << stage;
      for (size_t t = 1; t < inst.ldg.size(); ++t) {
        EXPECT_TRUE(inst.ldg[t].node_features.empty()) << stage << " " << t;
      }
    }
  };
  expect_layout("materialized");
  eth::StandardizeDataset(&ds, {0, 1});
  expect_layout("standardized");
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

/// The center account of every instance, in dataset order.
std::vector<eth::AccountId> Centers(const eth::SubgraphDataset& ds) {
  std::vector<eth::AccountId> out;
  for (const eth::GraphInstance& inst : ds.instances) {
    out.push_back(inst.subgraph.nodes[inst.subgraph.center_index]);
  }
  return out;
}

/// BuildDataset's two negative pools for `target`, in account order: the
/// other labeled classes ("hard"), and normal users other than the
/// coinbase with at least five transactions.
std::pair<std::vector<eth::AccountId>, std::vector<eth::AccountId>>
NegativePools(const eth::Ledger& ledger, eth::AccountClass target) {
  std::vector<eth::AccountId> hard;
  std::vector<eth::AccountId> normal;
  for (const eth::Account& acc : ledger.accounts()) {
    if (acc.cls != eth::AccountClass::kNormal && acc.cls != target) {
      hard.push_back(acc.id);
    } else if (acc.cls == eth::AccountClass::kNormal &&
               acc.id != ledger.coinbase_id() &&
               ledger.TransactionsOf(acc.id).size() >= 5) {
      normal.push_back(acc.id);
    }
  }
  return {hard, normal};
}

/// The centers of `pool` whose instance MaterializeInstance builds under
/// `config`'s sampling; `*rejected` counts the others.
std::unordered_set<eth::AccountId> UsableCenters(
    const eth::Ledger& ledger, const std::vector<eth::AccountId>& pool,
    const eth::DatasetConfig& config, int* rejected) {
  std::unordered_set<eth::AccountId> usable;
  for (eth::AccountId id : pool) {
    if (eth::MaterializeInstance(ledger, id, config.sampling,
                                 config.num_time_slices)
            .ok()) {
      usable.insert(id);
    } else {
      ++*rejected;
    }
  }
  return usable;
}

/// Builds `config`'s dataset and checks what holds for every configuration:
/// the positives come first and are accounts of the target class; the
/// negatives follow, and no center appears twice (so no positive is also a
/// negative). Returns the negatives' centers in dataset order.
std::vector<eth::AccountId> BuildAndSplitNegatives(
    const eth::Ledger& ledger, const eth::DatasetConfig& config,
    int* num_positives) {
  auto built = eth::BuildDataset(ledger, config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return {};
  const eth::SubgraphDataset ds = std::move(built).ValueOrDie();
  const std::vector<eth::AccountId> centers = Centers(ds);
  *num_positives = ds.num_positives();
  std::vector<eth::AccountId> negatives;
  for (int i = 0; i < ds.num_graphs(); ++i) {
    const eth::GraphInstance& inst = ds.instances[i];
    EXPECT_EQ(inst.label, i < *num_positives ? 1 : 0) << "instance " << i;
    if (inst.label == 1) {
      EXPECT_EQ(ledger.accounts()[centers[i]].cls, config.target);
    } else {
      negatives.push_back(centers[i]);
    }
  }
  EXPECT_EQ(std::unordered_set<eth::AccountId>(centers.begin(), centers.end())
                .size(),
            centers.size());
  return negatives;
}

TEST_F(DatasetTest, NegativesFollowTheDrawProtocol) {
  const auto is_normal = [&](eth::AccountId id) {
    return ledger_->accounts()[id].cls == eth::AccountClass::kNormal;
  };
  int num_positives = 0;

  // Hard fraction 0.45: the first want_hard negatives come from the other
  // labeled classes, the rest are normal users.
  eth::DatasetConfig mixed;
  mixed.target = eth::AccountClass::kPhishHack;
  mixed.num_time_slices = 3;
  mixed.sampling.top_k = 5;
  std::vector<eth::AccountId> negatives =
      BuildAndSplitNegatives(*ledger_, mixed, &num_positives);
  ASSERT_EQ(static_cast<int>(negatives.size()), num_positives);
  const int want_hard = static_cast<int>(num_positives * 0.45);
  ASSERT_GT(want_hard, 0);
  for (int i = 0; i < static_cast<int>(negatives.size()); ++i) {
    EXPECT_EQ(is_normal(negatives[i]), i >= want_hard) << "negative " << i;
  }

  // Hard fraction 1 with more negatives wanted than the hard pool holds:
  // every usable hard center comes first, then the draw falls back to
  // normal users for the rest.
  eth::DatasetConfig hard_only = mixed;
  hard_only.target = eth::AccountClass::kExchange;
  hard_only.hard_negative_fraction = 1.0;
  hard_only.negative_ratio = 6.0;
  negatives = BuildAndSplitNegatives(*ledger_, hard_only, &num_positives);
  int rejected = 0;
  const std::unordered_set<eth::AccountId> usable_hard = UsableCenters(
      *ledger_, NegativePools(*ledger_, hard_only.target).first, hard_only,
      &rejected);
  ASSERT_GT(static_cast<size_t>(6 * num_positives), usable_hard.size());
  ASSERT_EQ(static_cast<int>(negatives.size()), 6 * num_positives);
  for (size_t i = 0; i < negatives.size(); ++i) {
    EXPECT_EQ(is_normal(negatives[i]), i >= usable_hard.size())
        << "negative " << i;
  }
  EXPECT_EQ(std::unordered_set<eth::AccountId>(
                negatives.begin(), negatives.begin() + usable_hard.size()),
            usable_hard);

  // A ratio that wants more negatives than both pools hold: the draw takes
  // every usable center of both pools once, and none that
  // MaterializeInstance rejects. Top_k 1 leaves many centers (3 of the 10
  // positives among them) with fewer than three nodes, so the ratio is 250.
  eth::DatasetConfig exhaust = mixed;
  exhaust.negative_ratio = 250.0;
  exhaust.sampling.top_k = 1;
  negatives = BuildAndSplitNegatives(*ledger_, exhaust, &num_positives);
  const auto pools = NegativePools(*ledger_, exhaust.target);
  rejected = 0;
  std::unordered_set<eth::AccountId> usable =
      UsableCenters(*ledger_, pools.first, exhaust, &rejected);
  usable.merge(UsableCenters(*ledger_, pools.second, exhaust, &rejected));
  EXPECT_GT(rejected, 0);
  ASSERT_GT(250 * num_positives, static_cast<int>(usable.size()));
  EXPECT_EQ(std::unordered_set<eth::AccountId>(negatives.begin(),
                                               negatives.end()),
            usable);
  EXPECT_EQ(negatives.size(), usable.size());
}

TEST_F(DatasetTest, CenterOrderIsPinned) {
  // Top_k 1 makes MaterializeInstance reject 7 of the 10 positives and
  // most hard centers, so the order below also pins which centers the
  // draw skips.
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kPhishHack;
  config.num_time_slices = 3;
  config.sampling.top_k = 1;
  config.negative_ratio = 4.0;
  auto built = eth::BuildDataset(*ledger_, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  // 3 positives; 5 hard negatives (int(12 * 0.45)); 7 normal negatives.
  const std::vector<eth::AccountId> pinned = {
      626, 629, 627, 644, 617, 606, 619, 608,
      420, 465, 105, 332, 321, 301, 293};
  EXPECT_EQ(Centers(built.ValueOrDie()), pinned);
}

}  // namespace
}  // namespace dbg4eth
