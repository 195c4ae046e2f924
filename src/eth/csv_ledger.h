#ifndef DBG4ETH_ETH_CSV_LEDGER_H_
#define DBG4ETH_ETH_CSV_LEDGER_H_

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "eth/incident_index.h"
#include "eth/ledger_base.h"

namespace dbg4eth {
namespace eth {

/// \brief Ledger backed by a CSV export of real chain data (e.g. an
/// Etherscan transaction dump), so the full DBG4ETH pipeline can run on
/// actual Ethereum history instead of the simulator.
///
/// Transaction CSV columns (header required):
///   from,to,value,timestamp,gas_price,gas_used,to_is_contract
/// `from`/`to` are arbitrary address strings (0x... or any identifier);
/// `to_is_contract` is 0/1. Rows may appear in any order; they are sorted
/// by timestamp on load, and rows with equal timestamps keep file order.
///
/// Label CSV columns (header required):
///   address,label
/// with label one of exchange, ico-wallet, mining, phish-hack, bridge,
/// defi (unknown labels are rejected).
class CsvLedger : public Ledger {
 public:
  /// Parses a transaction CSV. Fails with InvalidArgument on malformed
  /// rows (with the offending line number in the message).
  static Result<std::unique_ptr<CsvLedger>> FromCsv(std::istream* is);

  /// Applies account labels from a label CSV. Unknown addresses are
  /// reported in the returned count, not an error (public label clouds
  /// routinely contain addresses outside the crawl window).
  Result<int> LoadLabels(std::istream* is);

  const std::vector<Account>& accounts() const override { return accounts_; }
  const std::vector<Transaction>& transactions() const override {
    return transactions_;
  }
  const std::vector<int>& TransactionsOf(AccountId id) const override;
  const std::vector<Counterparty>& CounterpartiesOf(
      AccountId id) const override;

  /// Dense id of an address, if it appears in the ledger.
  Result<AccountId> Resolve(const std::string& address) const;

  /// Original address string of a dense id.
  const std::string& AddressOf(AccountId id) const;

 private:
  CsvLedger() = default;

  AccountId Intern(const std::string& address, bool is_contract);

  std::vector<Account> accounts_;
  std::vector<std::string> addresses_;
  std::unordered_map<std::string, AccountId> by_address_;
  std::vector<Transaction> transactions_;
  IncidentIndex index_;
};

/// Writes a ledger's transactions in the CsvLedger::FromCsv format, using
/// `addr_<id>` as the address of account id (or the CsvLedger's original
/// addresses when exporting one). Useful for exporting simulator traffic
/// and for round-trip tests. Numbers are printed with 17 significant
/// digits, which FromCsv reads back to the same bits, so a ledger exported
/// in timestamp order re-imports as the same transactions in the same
/// order.
void WriteTransactionsCsv(const Ledger& ledger, std::ostream* os);

/// Writes the ledger's non-normal account labels in the LoadLabels format.
void WriteLabelsCsv(const Ledger& ledger, std::ostream* os);

}  // namespace eth
}  // namespace dbg4eth

#endif  // DBG4ETH_ETH_CSV_LEDGER_H_
