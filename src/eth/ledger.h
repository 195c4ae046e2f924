#ifndef DBG4ETH_ETH_LEDGER_H_
#define DBG4ETH_ETH_LEDGER_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "eth/incident_index.h"
#include "eth/ledger_base.h"
#include "eth/types.h"

namespace dbg4eth {
namespace eth {

/// \brief Parameters of the synthetic Ethereum ledger.
///
/// Stands in for the paper's Xblock crawl (2015-08-07 .. 2024-02-18). Counts
/// are deliberately smaller than mainnet; what matters for the
/// de-anonymization task is that each labeled class carries a distinct
/// structural *and* temporal behavioural signature, which the generators
/// below produce.
struct LedgerConfig {
  int num_normal = 4000;
  int num_exchange = 70;
  int num_ico_wallet = 60;
  int num_mining = 45;
  int num_phish_hack = 90;
  int num_bridge = 50;
  int num_defi = 50;
  /// Tornado-Cash-style mixer contracts (paper Sec. VI future work):
  /// fixed-denomination deposits, delayed withdrawals to unlinked
  /// addresses. 0 disables the extension.
  int num_mixer = 0;
  /// When true, phishing accounts launder their proceeds through a mixer
  /// instead of sending directly to mule accounts, breaking the
  /// exfiltration edge the detector would otherwise see.
  bool phish_use_mixer = false;
  double duration_days = 365.0;
  /// Mean number of background transactions per normal user.
  double normal_activity_mean = 8.0;
  /// Cross-class behavioural noise in [0, 1]: labeled accounts gain random
  /// background traffic and some normal users mimic burst (phishing-like)
  /// or periodic (mining-like) patterns, blurring class boundaries the way
  /// real mainnet activity does.
  double behavior_noise = 0.35;
  uint64_t seed = 42;
};

/// \brief Synthetic Ethereum ledger with class-specific account behaviours.
///
/// Behavioural signatures (see DESIGN.md for the substitution rationale):
///  - exchange: persistent high-degree hub, balanced deposits/withdrawals
///    spread over the whole period;
///  - ico-wallet: dense funding burst from many one-shot contributors, then
///    a few large treasury outflows;
///  - mining: periodic coinbase rewards in, periodic fan-out payouts to a
///    stable member set;
///  - phish-hack: short-lived victim burst in, rapid exfiltration to a few
///    mule accounts;
///  - bridge (contract): value-mirrored deposit/release pairs throughout;
///  - defi (contract): high-gas contract-call churn with swap-style
///    in-and-out value flow and contract-to-contract composability;
///  - normal: sparse random peer-to-peer payments.
class LedgerSimulator : public Ledger {
 public:
  explicit LedgerSimulator(LedgerConfig config);

  LedgerSimulator(const LedgerSimulator&) = delete;
  LedgerSimulator& operator=(const LedgerSimulator&) = delete;

  /// Generates all accounts and transactions. Must be called once before
  /// any accessor; returns InvalidArgument for a malformed config.
  Status Generate();

  const LedgerConfig& config() const { return config_; }
  const std::vector<Account>& accounts() const override { return accounts_; }
  const std::vector<Transaction>& transactions() const override {
    return transactions_;
  }

  /// The synthetic coinbase (block-reward source) account.
  AccountId coinbase_id() const override { return 0; }

  /// Indices (into transactions()) of every transaction where `id` is
  /// sender or receiver, in timestamp order.
  const std::vector<int>& TransactionsOf(AccountId id) const override;
  const std::vector<Counterparty>& CounterpartiesOf(
      AccountId id) const override;

  /// Simulation horizon in seconds.
  double duration_seconds() const { return config_.duration_days * 86400.0; }

 private:
  AccountId AddAccount(AccountKind kind, AccountClass cls);
  void Emit(AccountId from, AccountId to, double value, double timestamp,
            double gas_used);
  AccountId RandomNormalUser();

  void GenerateNormalBackground();
  void GenerateBehaviorNoise(const std::vector<AccountId>& labeled);
  void GenerateMixerBackground(AccountId id);
  /// Routes `amount` from `from` into a mixer as fixed-denomination
  /// deposits; matching withdrawals later pay unlinked normal users.
  void LaunderThroughMixer(AccountId from, double amount, double start_time);
  void GenerateExchange(AccountId id);
  void GenerateIcoWallet(AccountId id);
  void GenerateMining(AccountId id);
  void GeneratePhishHack(AccountId id);
  void GenerateBridge(AccountId id);
  void GenerateDefi(AccountId id);
  void FinalizeIndexes();
  /// Dies unless generated and `id` is an account of this ledger.
  void CheckAccount(AccountId id) const;

  LedgerConfig config_;
  Rng rng_;
  bool generated_ = false;
  AccountId defi_base_ = -1;
  AccountId mixer_base_ = -1;
  std::vector<Account> accounts_;
  std::vector<Transaction> transactions_;
  IncidentIndex index_;
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_LEDGER_H_
