#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eth/label_store.h"
#include "eth/ledger.h"

namespace dbg4eth {
namespace eth {
namespace {

LedgerConfig SmallConfig() {
  LedgerConfig config;
  config.num_normal = 500;
  config.num_exchange = 6;
  config.num_ico_wallet = 6;
  config.num_mining = 5;
  config.num_phish_hack = 8;
  config.num_bridge = 5;
  config.num_defi = 5;
  config.duration_days = 120.0;
  config.seed = 99;
  return config;
}

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ledger_ = std::make_unique<LedgerSimulator>(SmallConfig());
    ASSERT_TRUE(ledger_->Generate().ok());
  }
  std::unique_ptr<LedgerSimulator> ledger_;
};

TEST_F(LedgerTest, AccountCountsMatchConfig) {
  const auto& config = ledger_->config();
  const int expected = 1 + config.num_normal + config.num_exchange +
                       config.num_ico_wallet + config.num_mining +
                       config.num_phish_hack + config.num_bridge +
                       config.num_defi;
  EXPECT_EQ(static_cast<int>(ledger_->accounts().size()), expected);
  EXPECT_EQ(ledger_->AccountsOfClass(AccountClass::kExchange).size(), 6u);
  EXPECT_EQ(ledger_->AccountsOfClass(AccountClass::kPhishHack).size(), 8u);
}

TEST_F(LedgerTest, GenerateTwiceFails) {
  EXPECT_EQ(ledger_->Generate().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LedgerTest, RejectsBadConfig) {
  LedgerConfig bad = SmallConfig();
  bad.num_normal = 10;
  LedgerSimulator sim(bad);
  EXPECT_EQ(sim.Generate().code(), StatusCode::kInvalidArgument);

  LedgerConfig bad2 = SmallConfig();
  bad2.duration_days = 0.5;
  LedgerSimulator sim2(bad2);
  EXPECT_EQ(sim2.Generate().code(), StatusCode::kInvalidArgument);
}

TEST_F(LedgerTest, TransactionsSortedAndWellFormed) {
  const auto& txs = ledger_->transactions();
  ASSERT_GT(txs.size(), 1000u);
  const double horizon = ledger_->duration_seconds();
  for (size_t i = 0; i < txs.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(txs[i - 1].timestamp, txs[i].timestamp);
    }
    EXPECT_GE(txs[i].timestamp, 0.0);
    EXPECT_LE(txs[i].timestamp, horizon);
    EXPECT_GT(txs[i].value, 0.0);
    EXPECT_GT(txs[i].gas_price, 0.0);
    EXPECT_GE(txs[i].from, 0);
    EXPECT_GE(txs[i].to, 0);
    EXPECT_LT(txs[i].from, static_cast<AccountId>(ledger_->accounts().size()));
    EXPECT_LT(txs[i].to, static_cast<AccountId>(ledger_->accounts().size()));
  }
}

TEST_F(LedgerTest, ContractCallsFlagMatchesAccountKind) {
  for (const auto& tx : ledger_->transactions()) {
    const bool to_contract =
        ledger_->accounts()[tx.to].kind == AccountKind::kContract;
    EXPECT_EQ(tx.is_contract_call, to_contract);
  }
}

TEST_F(LedgerTest, TxIndexIsConsistent) {
  for (AccountId id : ledger_->AccountsOfClass(AccountClass::kExchange)) {
    for (int idx : ledger_->TransactionsOf(id)) {
      const Transaction& tx = ledger_->transactions()[idx];
      EXPECT_TRUE(tx.from == id || tx.to == id);
    }
  }
}

TEST_F(LedgerTest, CounterpartiesAlignWithTransactions) {
  // Entry i of CounterpartiesOf(id) is the other endpoint and value of
  // transaction TransactionsOf(id)[i]; every transaction is listed under
  // both endpoints, a self-transfer once.
  size_t entries = 0;
  for (const Account& account : ledger_->accounts()) {
    const AccountId id = account.id;
    const auto& txs = ledger_->TransactionsOf(id);
    const auto& peers = ledger_->CounterpartiesOf(id);
    ASSERT_EQ(peers.size(), txs.size()) << "account " << id;
    for (size_t i = 0; i < txs.size(); ++i) {
      const Transaction& tx = ledger_->transactions()[txs[i]];
      EXPECT_EQ(peers[i].peer, tx.from == id ? tx.to : tx.from);
      EXPECT_EQ(peers[i].value, tx.value);
    }
    entries += txs.size();
  }
  size_t expected = 0;
  for (const Transaction& tx : ledger_->transactions()) {
    expected += tx.from == tx.to ? 1 : 2;
  }
  EXPECT_EQ(entries, expected);
}

TEST_F(LedgerTest, ExchangesAreHighDegreeHubs) {
  // Behavioural signature: exchanges have far more transactions than a
  // typical normal user.
  double exchange_mean = 0.0;
  const auto exchanges = ledger_->AccountsOfClass(AccountClass::kExchange);
  for (AccountId id : exchanges) {
    exchange_mean += ledger_->TransactionsOf(id).size();
  }
  exchange_mean /= exchanges.size();

  double normal_mean = 0.0;
  int normal_count = 0;
  for (AccountId id = 1; id <= 200; ++id) {
    normal_mean += ledger_->TransactionsOf(id).size();
    ++normal_count;
  }
  normal_mean /= normal_count;
  EXPECT_GT(exchange_mean, normal_mean * 5.0);
}

TEST_F(LedgerTest, PhishActivityConcentratedInBurst) {
  // The signature burst dominates even with background behaviour noise:
  // the interquartile range of a phish account's transaction timestamps is
  // much shorter than the simulation horizon.
  const double horizon = ledger_->duration_seconds();
  for (AccountId id : ledger_->AccountsOfClass(AccountClass::kPhishHack)) {
    const auto& idxs = ledger_->TransactionsOf(id);
    ASSERT_GT(idxs.size(), 10u);
    std::vector<double> times;
    for (int i : idxs) times.push_back(ledger_->transactions()[i].timestamp);
    std::sort(times.begin(), times.end());
    const double q1 = times[times.size() / 4];
    const double q3 = times[3 * times.size() / 4];
    EXPECT_LT(q3 - q1, horizon * 0.3);
  }
}

TEST_F(LedgerTest, MiningReceivesPeriodicCoinbaseRewards) {
  const auto miners = ledger_->AccountsOfClass(AccountClass::kMining);
  for (AccountId id : miners) {
    int coinbase_in = 0;
    for (int i : ledger_->TransactionsOf(id)) {
      const Transaction& tx = ledger_->transactions()[i];
      if (tx.to == id && tx.from == ledger_->coinbase_id()) ++coinbase_in;
    }
    // ~4 rewards/day over 120 days; allow a broad band.
    EXPECT_GT(coinbase_in, 100);
  }
}

TEST_F(LedgerTest, BridgeValueMirroring) {
  // Bridges emit matched in/out volumes (releases are deposits minus fee).
  for (AccountId id : ledger_->AccountsOfClass(AccountClass::kBridge)) {
    double in_value = 0.0, out_value = 0.0;
    for (int i : ledger_->TransactionsOf(id)) {
      const Transaction& tx = ledger_->transactions()[i];
      if (tx.to == id) in_value += tx.value;
      if (tx.from == id) out_value += tx.value;
    }
    EXPECT_GT(in_value, 0.0);
    EXPECT_NEAR(out_value / in_value, 1.0, 0.05);
  }
}

TEST_F(LedgerTest, DefiContractsSeeHighGasCalls) {
  for (AccountId id : ledger_->AccountsOfClass(AccountClass::kDefi)) {
    double max_gas = 0.0;
    for (int i : ledger_->TransactionsOf(id)) {
      max_gas = std::max(max_gas, ledger_->transactions()[i].gas_used);
    }
    EXPECT_GT(max_gas, 100000.0);
  }
}

TEST_F(LedgerTest, DeterministicUnderSeed) {
  LedgerSimulator other(SmallConfig());
  ASSERT_TRUE(other.Generate().ok());
  ASSERT_EQ(other.transactions().size(), ledger_->transactions().size());
  for (size_t i = 0; i < other.transactions().size(); i += 97) {
    EXPECT_EQ(other.transactions()[i].from, ledger_->transactions()[i].from);
    EXPECT_EQ(other.transactions()[i].to, ledger_->transactions()[i].to);
    EXPECT_DOUBLE_EQ(other.transactions()[i].value,
                     ledger_->transactions()[i].value);
  }
}

TEST_F(LedgerTest, DifferentSeedsGiveDifferentLedgers) {
  LedgerConfig config = SmallConfig();
  config.seed = 1234;
  LedgerSimulator other(config);
  ASSERT_TRUE(other.Generate().ok());
  bool any_diff = other.transactions().size() != ledger_->transactions().size();
  if (!any_diff) {
    for (size_t i = 0; i < other.transactions().size(); ++i) {
      if (other.transactions()[i].value != ledger_->transactions()[i].value) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MixerExtensionTest, MixerFlowsAreFixedDenomination) {
  LedgerConfig config = SmallConfig();
  config.num_mixer = 2;
  LedgerSimulator ledger(config);
  ASSERT_TRUE(ledger.Generate().ok());
  // Mixers are the last two contract accounts, class kNormal.
  int mixer_deposits = 0;
  for (const Transaction& tx : ledger.transactions()) {
    const Account& to = ledger.accounts()[tx.to];
    if (to.kind != AccountKind::kContract ||
        to.cls != AccountClass::kNormal) {
      continue;
    }
    // Deposits use the fixed denominations 0.1 / 1 / 10 ETH.
    const bool denominated = std::fabs(tx.value - 0.1) < 1e-9 ||
                             std::fabs(tx.value - 1.0) < 1e-9 ||
                             std::fabs(tx.value - 10.0) < 1e-9;
    EXPECT_TRUE(denominated) << "deposit of " << tx.value;
    ++mixer_deposits;
  }
  EXPECT_GT(mixer_deposits, 50);
}

TEST(MixerExtensionTest, LaunderingRemovesDirectExfiltration) {
  // With phish_use_mixer, phishing wallets never pay EOAs directly large
  // sweeps; everything leaves via mixer contracts.
  LedgerConfig config = SmallConfig();
  config.num_mixer = 2;
  config.phish_use_mixer = true;
  config.behavior_noise = 0.0;  // isolate the signature flows
  LedgerSimulator ledger(config);
  ASSERT_TRUE(ledger.Generate().ok());
  for (AccountId id : ledger.AccountsOfClass(AccountClass::kPhishHack)) {
    for (int i : ledger.TransactionsOf(id)) {
      const Transaction& tx = ledger.transactions()[i];
      if (tx.from != id) continue;
      // Every outgoing transfer goes to a contract (the mixer).
      EXPECT_EQ(ledger.accounts()[tx.to].kind, AccountKind::kContract);
    }
  }
}

TEST(MixerExtensionTest, PhishWithoutMixerPaysEoaMules) {
  LedgerConfig config = SmallConfig();
  config.num_mixer = 2;
  config.phish_use_mixer = false;
  config.behavior_noise = 0.0;
  LedgerSimulator ledger(config);
  ASSERT_TRUE(ledger.Generate().ok());
  int eoa_sweeps = 0;
  for (AccountId id : ledger.AccountsOfClass(AccountClass::kPhishHack)) {
    for (int i : ledger.TransactionsOf(id)) {
      const Transaction& tx = ledger.transactions()[i];
      if (tx.from == id &&
          ledger.accounts()[tx.to].kind == AccountKind::kEoa) {
        ++eoa_sweeps;
      }
    }
  }
  EXPECT_GT(eoa_sweeps, 0);
}

TEST(AccountClassTest, NamesRoundTrip) {
  for (int i = 0; i < kNumAccountClasses; ++i) {
    const auto cls = static_cast<AccountClass>(i);
    EXPECT_EQ(AccountClassFromName(AccountClassName(cls)), cls);
  }
  EXPECT_EQ(AccountClassFromName("garbage"), AccountClass::kNormal);
}

TEST_F(LedgerTest, LabelStoreCoverage) {
  Rng rng(5);
  LabelStore full = LabelStore::BuildFromLedger(*ledger_, 1.0, &rng);
  const size_t total_labeled = 6 + 6 + 5 + 8 + 5 + 5;
  EXPECT_EQ(full.size(), total_labeled);
  EXPECT_EQ(full.LabeledAccounts(AccountClass::kMining).size(), 5u);

  Rng rng2(5);
  LabelStore half = LabelStore::BuildFromLedger(*ledger_, 0.5, &rng2);
  EXPECT_LT(half.size(), total_labeled);
  EXPECT_GT(half.size(), 0u);

  // Lookup agrees with ground truth for stored accounts.
  for (AccountId id : half.LabeledAccounts(AccountClass::kBridge)) {
    EXPECT_EQ(ledger_->accounts()[id].cls, AccountClass::kBridge);
  }
  EXPECT_FALSE(half.Lookup(1).has_value());  // normal user
}

}  // namespace
}  // namespace eth
}  // namespace dbg4eth
