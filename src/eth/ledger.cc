#include "eth/ledger.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace dbg4eth {
namespace eth {

namespace {

constexpr double kGwei = 1e9;
constexpr double kEoaGas = 21000.0;

}  // namespace

LedgerSimulator::LedgerSimulator(LedgerConfig config)
    : config_(config), rng_(config.seed) {}

AccountId LedgerSimulator::AddAccount(AccountKind kind, AccountClass cls) {
  const AccountId id = static_cast<AccountId>(accounts_.size());
  accounts_.push_back(Account{id, kind, cls});
  return id;
}

void LedgerSimulator::Emit(AccountId from, AccountId to, double value,
                           double timestamp, double gas_used) {
  Transaction tx;
  tx.from = from;
  tx.to = to;
  tx.value = std::max(value, 1e-6);
  tx.timestamp = Clamp(timestamp, 0.0, duration_seconds());
  tx.gas_used = gas_used;
  // Gas price drifts around 20 gwei with per-tx noise.
  tx.gas_price = std::max(1.0, rng_.Normal(20.0, 6.0)) * kGwei;
  tx.is_contract_call = accounts_[to].kind == AccountKind::kContract;
  transactions_.push_back(tx);
}

AccountId LedgerSimulator::RandomNormalUser() {
  // Normal users are allocated first, right after the coinbase account.
  return 1 + rng_.UniformInt(config_.num_normal);
}

Status LedgerSimulator::Generate() {
  if (generated_) {
    return Status::FailedPrecondition("Generate() already called");
  }
  if (config_.num_normal < 100) {
    return Status::InvalidArgument("need at least 100 normal users");
  }
  if (config_.duration_days <= 1.0) {
    return Status::InvalidArgument("duration must exceed one day");
  }

  // Account id layout: [0] coinbase, [1 .. num_normal] normal users, then
  // one contiguous block per labeled class.
  AddAccount(AccountKind::kEoa, AccountClass::kNormal);  // coinbase
  for (int i = 0; i < config_.num_normal; ++i) {
    AddAccount(AccountKind::kEoa, AccountClass::kNormal);
  }
  std::vector<AccountId> exchanges, icos, miners, phishes, bridges, defis;
  for (int i = 0; i < config_.num_exchange; ++i) {
    exchanges.push_back(AddAccount(AccountKind::kEoa, AccountClass::kExchange));
  }
  for (int i = 0; i < config_.num_ico_wallet; ++i) {
    icos.push_back(AddAccount(AccountKind::kEoa, AccountClass::kIcoWallet));
  }
  for (int i = 0; i < config_.num_mining; ++i) {
    miners.push_back(AddAccount(AccountKind::kEoa, AccountClass::kMining));
  }
  for (int i = 0; i < config_.num_phish_hack; ++i) {
    phishes.push_back(AddAccount(AccountKind::kEoa, AccountClass::kPhishHack));
  }
  for (int i = 0; i < config_.num_bridge; ++i) {
    bridges.push_back(AddAccount(AccountKind::kContract, AccountClass::kBridge));
  }
  for (int i = 0; i < config_.num_defi; ++i) {
    AccountId id = AddAccount(AccountKind::kContract, AccountClass::kDefi);
    if (defi_base_ < 0) defi_base_ = id;
    defis.push_back(id);
  }
  std::vector<AccountId> mixers;
  for (int i = 0; i < config_.num_mixer; ++i) {
    // Mixers are unlabeled infrastructure contracts.
    AccountId id = AddAccount(AccountKind::kContract, AccountClass::kNormal);
    if (mixer_base_ < 0) mixer_base_ = id;
    mixers.push_back(id);
  }

  GenerateNormalBackground();
  for (AccountId id : mixers) GenerateMixerBackground(id);
  for (AccountId id : exchanges) GenerateExchange(id);
  for (AccountId id : icos) GenerateIcoWallet(id);
  for (AccountId id : miners) GenerateMining(id);
  for (AccountId id : phishes) GeneratePhishHack(id);
  for (AccountId id : bridges) GenerateBridge(id);
  for (AccountId id : defis) GenerateDefi(id);

  std::vector<AccountId> labeled;
  labeled.insert(labeled.end(), exchanges.begin(), exchanges.end());
  labeled.insert(labeled.end(), icos.begin(), icos.end());
  labeled.insert(labeled.end(), miners.begin(), miners.end());
  labeled.insert(labeled.end(), phishes.begin(), phishes.end());
  labeled.insert(labeled.end(), bridges.begin(), bridges.end());
  labeled.insert(labeled.end(), defis.begin(), defis.end());
  GenerateBehaviorNoise(labeled);

  FinalizeIndexes();
  generated_ = true;
  return Status::OK();
}

void LedgerSimulator::GenerateNormalBackground() {
  const double horizon = duration_seconds();
  for (int u = 1; u <= config_.num_normal; ++u) {
    const int n_tx = rng_.Poisson(config_.normal_activity_mean);
    for (int k = 0; k < n_tx; ++k) {
      AccountId peer = RandomNormalUser();
      if (peer == u) continue;
      Emit(u, peer, rng_.LogNormal(-1.5, 1.0), rng_.Uniform(0.0, horizon),
           kEoaGas);
    }
  }
}

namespace {

/// Tornado-style fixed pool denominations (ETH).
constexpr double kMixerDenominations[] = {0.1, 1.0, 10.0};

}  // namespace

void LedgerSimulator::GenerateMixerBackground(AccountId id) {
  // Legitimate privacy users: fixed-denomination deposits, withdrawals to
  // fresh (unlinked) addresses after a randomized delay.
  const double horizon = duration_seconds();
  const int n_flows = rng_.UniformInt(60, 140);
  for (int k = 0; k < n_flows; ++k) {
    const double denom = kMixerDenominations[rng_.UniformInt(3)];
    const double t = rng_.Uniform(0.0, horizon * 0.95);
    Emit(RandomNormalUser(), id, denom, t,
         rng_.Uniform(900000.0, 1100000.0));
    // Anonymity-set delay: hours to days.
    Emit(id, RandomNormalUser(), denom * 0.999,
         t + rng_.Uniform(3600.0, 5.0 * 86400.0),
         rng_.Uniform(300000.0, 400000.0));
  }
}

void LedgerSimulator::LaunderThroughMixer(AccountId from, double amount,
                                          double start_time) {
  DBG4ETH_CHECK_GE(mixer_base_, 0);
  const AccountId mixer = mixer_base_ + rng_.UniformInt(config_.num_mixer);
  double t = start_time;
  // Split into fixed denominations, largest first.
  for (double denom : {10.0, 1.0, 0.1}) {
    while (amount >= denom) {
      Emit(from, mixer, denom, t, rng_.Uniform(900000.0, 1100000.0));
      // The matching withdrawal pays an unlinked address much later.
      Emit(mixer, RandomNormalUser(), denom * 0.999,
           t + rng_.Uniform(6.0 * 3600.0, 7.0 * 86400.0),
           rng_.Uniform(300000.0, 400000.0));
      amount -= denom;
      t += rng_.Uniform(60.0, 1800.0);
    }
  }
}

void LedgerSimulator::GenerateBehaviorNoise(
    const std::vector<AccountId>& labeled) {
  const double noise = Clamp(config_.behavior_noise, 0.0, 1.0);
  if (noise <= 0.0) return;
  const double horizon = duration_seconds();

  // Labeled accounts also take part in unrelated background traffic, so
  // their subgraphs are not purely their signature pattern.
  for (AccountId id : labeled) {
    if (accounts_[id].kind == AccountKind::kContract) continue;
    const int n_noise = rng_.Poisson(noise * 18.0);
    for (int k = 0; k < n_noise; ++k) {
      const AccountId peer = RandomNormalUser();
      if (rng_.Bernoulli(0.5)) {
        Emit(id, peer, rng_.LogNormal(-1.0, 1.2), rng_.Uniform(0.0, horizon),
             kEoaGas);
      } else {
        Emit(peer, id, rng_.LogNormal(-1.0, 1.2), rng_.Uniform(0.0, horizon),
             kEoaGas);
      }
    }
  }

  // Some normal users mimic labeled signatures: merchants receive bursts
  // of small payments (phishing-like inflow), hobby miners receive regular
  // periodic income (mining-like).
  const int n_burst =
      static_cast<int>(noise * 0.06 * config_.num_normal);
  for (int b = 0; b < n_burst; ++b) {
    const AccountId merchant = RandomNormalUser();
    const double window = rng_.Uniform(1.0, 6.0) * 86400.0;
    const double t0 = rng_.Uniform(0.0, std::max(horizon - window, 1.0));
    const int n_payments = rng_.UniformInt(15, 60);
    for (int k = 0; k < n_payments; ++k) {
      Emit(RandomNormalUser(), merchant, rng_.LogNormal(-0.5, 1.0),
           t0 + rng_.Uniform() * window, kEoaGas);
    }
    // Periodic sweep of revenue to one account, phishing-exfil-like.
    Emit(merchant, RandomNormalUser(), rng_.LogNormal(1.0, 0.8),
         t0 + window + rng_.Uniform(3600.0, 86400.0), kEoaGas);
  }
  const int n_periodic =
      static_cast<int>(noise * 0.05 * config_.num_normal);
  for (int p = 0; p < n_periodic; ++p) {
    const AccountId worker = RandomNormalUser();
    const AccountId payer = RandomNormalUser();
    const double period = rng_.Uniform(5.0, 20.0) * 86400.0;
    for (double t = rng_.Uniform(0.0, period); t < horizon; t += period) {
      Emit(payer, worker, rng_.LogNormal(0.5, 0.3),
           t + rng_.Normal(0.0, 3600.0), kEoaGas);
    }
  }
}

void LedgerSimulator::GenerateExchange(AccountId id) {
  const double horizon = duration_seconds();
  // Persistent hub: deposits and withdrawals with many distinct users,
  // spread uniformly over the whole simulation.
  const int n_deposits = rng_.UniformInt(120, 200);
  for (int k = 0; k < n_deposits; ++k) {
    Emit(RandomNormalUser(), id, rng_.LogNormal(0.5, 1.2),
         rng_.Uniform(0.0, horizon), kEoaGas);
  }
  const int n_withdrawals = rng_.UniformInt(110, 190);
  for (int k = 0; k < n_withdrawals; ++k) {
    Emit(id, RandomNormalUser(), rng_.LogNormal(0.4, 1.2),
         rng_.Uniform(0.0, horizon), kEoaGas);
  }
  // Occasional inter-exchange settlement (large values).
  const int n_settlements = rng_.UniformInt(3, 10);
  for (int k = 0; k < n_settlements; ++k) {
    AccountId other =
        static_cast<AccountId>(1 + config_.num_normal +
                               rng_.UniformInt(config_.num_exchange));
    if (other == id) continue;
    Emit(id, other, rng_.LogNormal(4.0, 0.8), rng_.Uniform(0.0, horizon),
         kEoaGas);
  }
}

void LedgerSimulator::GenerateIcoWallet(AccountId id) {
  const double horizon = duration_seconds();
  // Funding window: contributions cluster early in the window.
  const double window = rng_.Uniform(7.0, 30.0) * 86400.0;
  const double t0 = rng_.Uniform(0.0, std::max(horizon - 2.0 * window, 1.0));
  const int n_contrib = rng_.UniformInt(80, 150);
  double raised = 0.0;
  for (int k = 0; k < n_contrib; ++k) {
    const double v = rng_.LogNormal(1.0, 1.0);
    raised += v;
    // Early-heavy arrival profile: squared uniform pushes mass to t0.
    const double u = rng_.Uniform();
    Emit(RandomNormalUser(), id, v, t0 + u * u * window, kEoaGas);
  }
  // Treasury drain after the window: few large transfers.
  const int n_out = rng_.UniformInt(5, 15);
  double remaining = raised;
  for (int k = 0; k < n_out; ++k) {
    const double v = remaining * rng_.Uniform(0.1, 0.35);
    remaining -= v;
    Emit(id, RandomNormalUser(), std::max(v, 0.5),
         t0 + window + rng_.Exponential(1.0 / (10.0 * 86400.0)), kEoaGas);
  }
}

void LedgerSimulator::GenerateMining(AccountId id) {
  const double horizon = duration_seconds();
  // Stable payout member set.
  const int n_members = rng_.UniformInt(20, 40);
  std::vector<AccountId> members(n_members);
  for (auto& m : members) m = RandomNormalUser();

  // Periodic block rewards from the coinbase (mean 6h interval).
  double t = rng_.Exponential(1.0 / (6.0 * 3600.0));
  double accumulated = 0.0;
  double last_payout = 0.0;
  const double payout_period = rng_.Uniform(2.0, 4.0) * 86400.0;
  while (t < horizon) {
    const double reward = std::max(0.5, rng_.Normal(2.5, 0.5));
    Emit(coinbase_id(), id, reward, t, kEoaGas);
    accumulated += reward;
    if (t - last_payout > payout_period && accumulated > 1.0) {
      // Fan-out payout to every member, proportional shares with jitter.
      for (AccountId m : members) {
        const double share =
            accumulated / n_members * rng_.Uniform(0.7, 1.3);
        Emit(id, m, share, t + rng_.Uniform(60.0, 3600.0), kEoaGas);
      }
      accumulated = 0.0;
      last_payout = t;
    }
    t += rng_.Exponential(1.0 / (6.0 * 3600.0));
  }
}

void LedgerSimulator::GeneratePhishHack(AccountId id) {
  const double horizon = duration_seconds();
  // Short active window with a bursty victim inflow.
  const double window = rng_.Uniform(1.0, 5.0) * 86400.0;
  const double t0 = rng_.Uniform(0.0, std::max(horizon - 2.0 * window, 1.0));
  const int n_victims = rng_.UniformInt(40, 120);
  // 1-3 mule accounts receive the exfiltrated funds.
  const int n_mules = rng_.UniformInt(1, 3);
  std::vector<AccountId> mules(n_mules);
  for (auto& m : mules) m = RandomNormalUser();

  double stolen = 0.0;
  double last_burst = t0;
  for (int k = 0; k < n_victims; ++k) {
    const double v = rng_.LogNormal(0.0, 1.3);
    stolen += v;
    const double tv = t0 + rng_.Uniform() * window;
    Emit(RandomNormalUser(), id, v, tv, kEoaGas);
    last_burst = std::max(last_burst, tv);
    // Rapid exfiltration: every few victims, sweep the balance within
    // minutes-to-hours — directly to a mule, or through a mixer when the
    // privacy-service extension is enabled.
    const bool launder = config_.phish_use_mixer && config_.num_mixer > 0;
    if (stolen > 5.0 && rng_.Bernoulli(0.3)) {
      const double swept = stolen * rng_.Uniform(0.8, 1.0);
      if (launder) {
        LaunderThroughMixer(id, swept, tv + rng_.Uniform(120.0, 7200.0));
      } else {
        Emit(id, mules[rng_.UniformInt(n_mules)], swept,
             tv + rng_.Uniform(120.0, 7200.0), kEoaGas);
      }
      stolen = 0.0;
    }
  }
  if (stolen > 0.0) {
    if (config_.phish_use_mixer && config_.num_mixer > 0) {
      LaunderThroughMixer(id, stolen,
                          last_burst + rng_.Uniform(120.0, 7200.0));
    } else {
      Emit(id, mules[rng_.UniformInt(n_mules)], stolen,
           last_burst + rng_.Uniform(120.0, 7200.0), kEoaGas);
    }
  }
}

void LedgerSimulator::GenerateBridge(AccountId id) {
  const double horizon = duration_seconds();
  // Lock/release pairs with mirrored value (minus fee), continuous activity.
  const int n_pairs = rng_.UniformInt(120, 250);
  for (int k = 0; k < n_pairs; ++k) {
    const double v = rng_.LogNormal(0.8, 1.1);
    const double t = rng_.Uniform(0.0, horizon);
    const AccountId depositor = RandomNormalUser();
    Emit(depositor, id, v, t, rng_.Uniform(80000.0, 120000.0));
    // Release to the same or a different user shortly after.
    const AccountId receiver =
        rng_.Bernoulli(0.5) ? depositor : RandomNormalUser();
    Emit(id, receiver, v * rng_.Uniform(0.990, 0.999),
         t + rng_.Uniform(60.0, 1800.0), kEoaGas);
  }
}

void LedgerSimulator::GenerateDefi(AccountId id) {
  const double horizon = duration_seconds();
  // Swap-style churn: users call the contract with value in, value out, at
  // high gas; plus contract-to-contract composability calls.
  const int n_swaps = rng_.UniformInt(150, 300);
  for (int k = 0; k < n_swaps; ++k) {
    const double v = rng_.LogNormal(0.0, 1.8);
    const double t = rng_.Uniform(0.0, horizon);
    const AccountId user = RandomNormalUser();
    Emit(user, id, v, t, rng_.Uniform(150000.0, 400000.0));
    if (rng_.Bernoulli(0.8)) {
      Emit(id, user, v * rng_.Uniform(0.9, 1.1), t + rng_.Uniform(5.0, 120.0),
           rng_.Uniform(40000.0, 90000.0));
    }
  }
  // Composability: periodic calls between DeFi contracts.
  if (config_.num_defi > 1) {
    const int n_calls = rng_.UniformInt(10, 30);
    for (int k = 0; k < n_calls; ++k) {
      AccountId other = defi_base_ + rng_.UniformInt(config_.num_defi);
      if (other == id || other < 0 ||
          other >= static_cast<AccountId>(accounts_.size())) {
        continue;
      }
      Emit(id, other, rng_.LogNormal(1.5, 1.0), rng_.Uniform(0.0, horizon),
           rng_.Uniform(200000.0, 500000.0));
    }
  }
}

void LedgerSimulator::FinalizeIndexes() {
  std::sort(transactions_.begin(), transactions_.end(),
            [](const Transaction& a, const Transaction& b) {
              return a.timestamp < b.timestamp;
            });
  index_ = IncidentIndex(accounts_.size(), transactions_);
}

void LedgerSimulator::CheckAccount(AccountId id) const {
  DBG4ETH_CHECK(generated_);
  DBG4ETH_CHECK(id >= 0 && id < static_cast<AccountId>(accounts_.size()));
}

const std::vector<int>& LedgerSimulator::TransactionsOf(AccountId id) const {
  CheckAccount(id);
  return index_.TransactionsOf(id);
}

const std::vector<Counterparty>& LedgerSimulator::CounterpartiesOf(
    AccountId id) const {
  CheckAccount(id);
  return index_.CounterpartiesOf(id);
}

}  // namespace eth
}  // namespace dbg4eth
