#ifndef DBG4ETH_ETH_TYPES_H_
#define DBG4ETH_ETH_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dbg4eth {
namespace eth {

/// Dense integer account identifier (index into the ledger's account table).
using AccountId = int32_t;

/// Ethereum account model: externally owned accounts vs contract accounts.
enum class AccountKind { kEoa, kContract };

/// Identity categories used in the paper's de-anonymization task. kNormal
/// covers unlabeled background accounts.
enum class AccountClass {
  kNormal = 0,
  kExchange,
  kIcoWallet,
  kMining,
  kPhishHack,
  kBridge,
  kDefi,
};

inline constexpr int kNumAccountClasses = 7;

/// Short lower-case name used in tables ("exchange", "ico-wallet", ...).
const char* AccountClassName(AccountClass cls);

/// Inverse of AccountClassName; returns kNormal for unknown strings.
AccountClass AccountClassFromName(const std::string& name);

/// \brief One Ethereum transaction (the fields the paper's pipeline uses).
struct Transaction {
  AccountId from = -1;
  AccountId to = -1;
  double value = 0.0;      ///< ETH transferred.
  double timestamp = 0.0;  ///< Seconds since the simulated genesis.
  double gas_price = 1e9;  ///< Wei per gas unit.
  double gas_used = 21000.0;
  bool is_contract_call = false;  ///< True when `to` is a contract account.
};

/// \brief The other endpoint and the value of one transaction, as seen from
/// one of its endpoints (see Ledger::CounterpartiesOf).
struct Counterparty {
  AccountId peer = -1;  ///< The account itself for a self-transfer.
  double value = 0.0;   ///< ETH transferred.
};

/// \brief Account metadata tracked by the ledger.
struct Account {
  AccountId id = -1;
  AccountKind kind = AccountKind::kEoa;
  AccountClass cls = AccountClass::kNormal;
};

/// \brief A transaction with endpoints re-indexed into a subgraph's local
/// node space; produced by graph sampling.
struct LocalTransaction {
  int src = -1;  ///< Local node index of the sender.
  int dst = -1;  ///< Local node index of the receiver.
  double value = 0.0;
  double timestamp = 0.0;
  double gas_price = 1e9;
  double gas_used = 21000.0;
  bool is_contract_call = false;
};

/// \brief Account-centred transaction subgraph: the unit of classification.
///
/// `nodes[i]` is the global account id of local node i; `center_index` is the
/// local index of the target (labeled) account; `txs` holds every retained
/// transaction between member nodes, sorted by timestamp.
struct TxSubgraph {
  std::vector<AccountId> nodes;
  std::vector<bool> is_contract;  ///< Parallel to `nodes`.
  int center_index = 0;
  std::vector<LocalTransaction> txs;
  AccountClass center_class = AccountClass::kNormal;
  int label = 0;  ///< Binary task label (1 = positive class).

  int num_nodes() const { return static_cast<int>(nodes.size()); }
};

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_TYPES_H_
