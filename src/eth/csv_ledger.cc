#include "eth/csv_ledger.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace dbg4eth {
namespace eth {

namespace {

constexpr char kTxHeader[] =
    "from,to,value,timestamp,gas_price,gas_used,to_is_contract";
constexpr char kLabelHeader[] = "address,label";

/// Parses one numeric field. The field may carry surrounding whitespace
/// (it is trimmed); anything non-numeric, partially numeric, or outside
/// the finite double range (overflowing exponents, "inf", "nan") is an
/// InvalidArgument carrying the line number — hostile rows must never
/// poison downstream math or the timestamp sort.
Status ParseDouble(const std::string& raw, int line, double* out) {
  const std::string field = Trim(raw);
  if (field.empty()) {
    return Status::InvalidArgument(StrFormat("line %d: empty field", line));
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("line %d: not a number: '%s'", line, field.c_str()));
  }
  if (errno == ERANGE || !std::isfinite(*out)) {
    return Status::InvalidArgument(
        StrFormat("line %d: number out of range: '%s'", line, field.c_str()));
  }
  return Status::OK();
}

/// Strips a UTF-8 byte-order mark, which spreadsheet exports routinely
/// prepend to the header line.
void StripBom(std::string* line) {
  if (line->size() >= 3 && (*line)[0] == '\xEF' && (*line)[1] == '\xBB' &&
      (*line)[2] == '\xBF') {
    line->erase(0, 3);
  }
}

}  // namespace

AccountId CsvLedger::Intern(const std::string& address, bool is_contract) {
  auto it = by_address_.find(address);
  if (it != by_address_.end()) {
    // Upgrade EOA -> contract if any transaction marks it as a call target.
    if (is_contract) {
      accounts_[it->second].kind = AccountKind::kContract;
    }
    return it->second;
  }
  const AccountId id = static_cast<AccountId>(accounts_.size());
  accounts_.push_back(Account{
      id, is_contract ? AccountKind::kContract : AccountKind::kEoa,
      AccountClass::kNormal});
  addresses_.push_back(address);
  by_address_[address] = id;
  return id;
}

Result<std::unique_ptr<CsvLedger>> CsvLedger::FromCsv(std::istream* is) {
  DBG4ETH_FAIL_POINT("eth.from_csv");
  std::unique_ptr<CsvLedger> ledger(new CsvLedger());
  std::string line;
  if (!std::getline(*is, line)) {
    return Status::InvalidArgument(
        std::string("expected transaction CSV header: ") + kTxHeader);
  }
  StripBom(&line);  // Trim handles CRLF; the BOM needs explicit stripping.
  if (Trim(line) != kTxHeader) {
    return Status::InvalidArgument(
        std::string("expected transaction CSV header: ") + kTxHeader);
  }
  int line_no = 1;
  while (std::getline(*is, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = Split(trimmed, ',');
    if (fields.size() != 7) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected 7 fields, got %zu", line_no,
                    fields.size()));
    }
    Transaction tx;
    DBG4ETH_RETURN_NOT_OK(ParseDouble(fields[2], line_no, &tx.value));
    DBG4ETH_RETURN_NOT_OK(ParseDouble(fields[3], line_no, &tx.timestamp));
    DBG4ETH_RETURN_NOT_OK(ParseDouble(fields[4], line_no, &tx.gas_price));
    DBG4ETH_RETURN_NOT_OK(ParseDouble(fields[5], line_no, &tx.gas_used));
    const std::string contract_flag = Trim(fields[6]);
    if (contract_flag != "0" && contract_flag != "1") {
      return Status::InvalidArgument(
          StrFormat("line %d: to_is_contract must be 0 or 1", line_no));
    }
    tx.is_contract_call = contract_flag == "1";
    if (tx.value < 0 || tx.gas_price < 0 || tx.gas_used < 0) {
      return Status::InvalidArgument(
          StrFormat("line %d: negative value/gas", line_no));
    }
    const std::string from = Trim(fields[0]);
    const std::string to = Trim(fields[1]);
    if (from.empty() || to.empty()) {
      return Status::InvalidArgument(
          StrFormat("line %d: empty address", line_no));
    }
    tx.from = ledger->Intern(from, /*is_contract=*/false);
    tx.to = ledger->Intern(to, tx.is_contract_call);
    ledger->transactions_.push_back(tx);
  }
  if (ledger->transactions_.empty()) {
    return Status::InvalidArgument("transaction CSV contains no rows");
  }
  // Stable: rows with equal timestamps keep file order (block order in a
  // chain export), so an exported ledger re-imports in its own order.
  std::stable_sort(ledger->transactions_.begin(), ledger->transactions_.end(),
                   [](const Transaction& a, const Transaction& b) {
                     return a.timestamp < b.timestamp;
                   });
  ledger->index_ =
      IncidentIndex(ledger->accounts_.size(), ledger->transactions_);
  return ledger;
}

Result<int> CsvLedger::LoadLabels(std::istream* is) {
  std::string line;
  if (!std::getline(*is, line)) {
    return Status::InvalidArgument(
        std::string("expected label CSV header: ") + kLabelHeader);
  }
  StripBom(&line);
  if (Trim(line) != kLabelHeader) {
    return Status::InvalidArgument(
        std::string("expected label CSV header: ") + kLabelHeader);
  }
  int applied = 0;
  int line_no = 1;
  while (std::getline(*is, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = Split(trimmed, ',');
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected 2 fields", line_no));
    }
    const AccountClass cls = AccountClassFromName(Trim(fields[1]));
    if (cls == AccountClass::kNormal) {
      return Status::InvalidArgument(
          StrFormat("line %d: unknown label '%s'", line_no,
                    fields[1].c_str()));
    }
    auto it = by_address_.find(Trim(fields[0]));
    if (it == by_address_.end()) continue;  // outside the crawl window
    accounts_[it->second].cls = cls;
    ++applied;
  }
  return applied;
}

const std::vector<int>& CsvLedger::TransactionsOf(AccountId id) const {
  DBG4ETH_CHECK(id >= 0 && id < static_cast<AccountId>(accounts_.size()));
  return index_.TransactionsOf(id);
}

const std::vector<Counterparty>& CsvLedger::CounterpartiesOf(
    AccountId id) const {
  DBG4ETH_CHECK(id >= 0 && id < static_cast<AccountId>(accounts_.size()));
  return index_.CounterpartiesOf(id);
}

Result<AccountId> CsvLedger::Resolve(const std::string& address) const {
  auto it = by_address_.find(address);
  if (it == by_address_.end()) {
    return Status::NotFound("unknown address: " + address);
  }
  return it->second;
}

const std::string& CsvLedger::AddressOf(AccountId id) const {
  DBG4ETH_CHECK(id >= 0 && id < static_cast<AccountId>(addresses_.size()));
  return addresses_[id];
}

void WriteTransactionsCsv(const Ledger& ledger, std::ostream* os) {
  const auto* csv = dynamic_cast<const CsvLedger*>(&ledger);
  *os << kTxHeader << "\n";
  for (const Transaction& tx : ledger.transactions()) {
    const std::string from =
        csv ? csv->AddressOf(tx.from) : StrFormat("addr_%d", tx.from);
    const std::string to =
        csv ? csv->AddressOf(tx.to) : StrFormat("addr_%d", tx.to);
    *os << from << "," << to << ","
        << StrFormat("%.17g,%.17g,%.17g,%.17g,%d", tx.value, tx.timestamp,
                     tx.gas_price, tx.gas_used, tx.is_contract_call ? 1 : 0)
        << "\n";
  }
}

void WriteLabelsCsv(const Ledger& ledger, std::ostream* os) {
  const auto* csv = dynamic_cast<const CsvLedger*>(&ledger);
  *os << kLabelHeader << "\n";
  for (const Account& acc : ledger.accounts()) {
    if (acc.cls == AccountClass::kNormal) continue;
    const std::string address =
        csv ? csv->AddressOf(acc.id) : StrFormat("addr_%d", acc.id);
    *os << address << "," << AccountClassName(acc.cls) << "\n";
  }
}

}  // namespace eth
}  // namespace dbg4eth
