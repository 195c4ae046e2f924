#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "eth/csv_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "graph/sampling.h"

namespace dbg4eth {
namespace eth {
namespace {

constexpr char kHeader[] =
    "from,to,value,timestamp,gas_price,gas_used,to_is_contract\n";

TEST(CsvLedgerTest, ParsesWellFormedCsv) {
  std::stringstream csv;
  csv << kHeader
      << "0xaaa,0xbbb,1.5,100,20000000000,21000,0\n"
      << "0xbbb,0xccc,2.0,50,21000000000,90000,1\n"
      << "0xaaa,0xccc,0.3,200,19000000000,90000,1\n";
  auto result = CsvLedger::FromCsv(&csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ledger = result.ValueOrDie();
  EXPECT_EQ(ledger->accounts().size(), 3u);
  ASSERT_EQ(ledger->transactions().size(), 3u);
  // Sorted by timestamp.
  EXPECT_DOUBLE_EQ(ledger->transactions()[0].timestamp, 50.0);
  EXPECT_DOUBLE_EQ(ledger->transactions()[2].timestamp, 200.0);
  // 0xccc was a contract-call target -> contract account.
  const AccountId ccc = ledger->Resolve("0xccc").ValueOrDie();
  EXPECT_EQ(ledger->accounts()[ccc].kind, AccountKind::kContract);
  EXPECT_EQ(ledger->AddressOf(ccc), "0xccc");
  // Index covers both directions.
  const AccountId bbb = ledger->Resolve("0xbbb").ValueOrDie();
  EXPECT_EQ(ledger->TransactionsOf(bbb).size(), 2u);
  EXPECT_EQ(ledger->Resolve("0xzzz").status().code(), StatusCode::kNotFound);
}

TEST(CsvLedgerTest, RejectsMalformedInput) {
  {
    std::stringstream csv;
    csv << "wrong,header\n";
    EXPECT_EQ(CsvLedger::FromCsv(&csv).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream csv;
    csv << kHeader << "a,b,notanumber,1,1,1,0\n";
    EXPECT_EQ(CsvLedger::FromCsv(&csv).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream csv;
    csv << kHeader << "a,b,1,1,1,1,2\n";  // bad contract flag
    EXPECT_EQ(CsvLedger::FromCsv(&csv).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream csv;
    csv << kHeader << "a,b,1,1\n";  // missing fields
    EXPECT_EQ(CsvLedger::FromCsv(&csv).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream csv;
    csv << kHeader;  // no rows
    EXPECT_EQ(CsvLedger::FromCsv(&csv).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(CsvLedgerTest, AcceptsCrlfBomAndFieldWhitespace) {
  // Spreadsheet exports routinely arrive with a UTF-8 BOM, CRLF line
  // endings, padded fields and stray blank lines; all of that is noise,
  // not data, and must parse to the same ledger as the clean form.
  std::stringstream csv;
  csv << "\xEF\xBB\xBF"
      << "from,to,value,timestamp,gas_price,gas_used,to_is_contract\r\n"
      << " 0xaaa , 0xbbb , 1.5 , 100 , 2e10 , 21000 , 0 \r\n"
      << "\r\n"
      << "0xbbb,0xccc,2.0,50,2.1e10,90000, 1\r\n";
  auto result = CsvLedger::FromCsv(&csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ledger = result.ValueOrDie();
  ASSERT_EQ(ledger->transactions().size(), 2u);
  EXPECT_EQ(ledger->accounts().size(), 3u);
  // Addresses interned without the padding.
  EXPECT_TRUE(ledger->Resolve("0xaaa").ok());
  EXPECT_FALSE(ledger->Resolve(" 0xaaa ").ok());
  const AccountId ccc = ledger->Resolve("0xccc").ValueOrDie();
  EXPECT_EQ(ledger->accounts()[ccc].kind, AccountKind::kContract);
  EXPECT_DOUBLE_EQ(ledger->transactions()[1].value, 1.5);  // Sorted by ts.

  // A BOM'd label header parses too.
  std::stringstream labels;
  labels << "\xEF\xBB\xBF" << "address,label\r\n" << "0xaaa,exchange\r\n";
  auto applied = ledger->LoadLabels(&labels);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.ValueOrDie(), 1);
}

TEST(CsvLedgerTest, RejectsHostileNumericsWithLineNumber) {
  const auto parse = [](const std::string& row) {
    std::stringstream csv;
    csv << kHeader << "a,b,1,1,1,21000,0\n" << row << "\n";
    return CsvLedger::FromCsv(&csv).status();
  };
  // Overflowing exponents, infinities and NaNs must not poison the
  // feature math or the timestamp sort.
  for (const char* bad :
       {"a,b,1e999,1,1,1,0", "a,b,1,inf,1,1,0", "a,b,1,1,nan,1,0",
        "a,b,1,1,1,-inf,0", "a,b,1.5x,1,1,1,0", "a,b,,1,1,1,0"}) {
    const Status st = parse(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("line 3"), std::string::npos)
        << bad << " -> " << st.ToString();
  }
  // Whitespace-only addresses are empty addresses, not accounts.
  EXPECT_EQ(parse("  ,b,1,1,1,1,0").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("a,   ,1,1,1,1,0").code(), StatusCode::kInvalidArgument);
}

TEST(CsvLedgerTest, RandomMutationsNeverCrashTheParser) {
  // Property-style robustness: arbitrary single-byte corruptions of a
  // valid export either parse (the mutation was benign) or fail with a
  // clean InvalidArgument — never a crash, hang, or empty message.
  std::string valid;
  {
    std::stringstream csv;
    csv << kHeader;
    for (int i = 0; i < 8; ++i) {
      csv << "addr" << i << ",addr" << (i + 1) << "," << (i + 0.5) << ","
          << i * 10 << ",2e10,21000," << (i % 2) << "\n";
    }
    valid = csv.str();
  }
  std::mt19937_64 rng(0xc5f);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = valid;
    const size_t pos = rng() % mutated.size();
    switch (rng() % 3) {
      case 0:  // Replace with an arbitrary byte.
        mutated[pos] = static_cast<char>(rng() & 0xff);
        break;
      case 1:  // Drop a byte.
        mutated.erase(pos, 1);
        break;
      default:  // Duplicate a byte.
        mutated.insert(pos, 1, mutated[pos]);
        break;
    }
    std::stringstream csv(mutated);
    auto result = CsvLedger::FromCsv(&csv);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << result.status().ToString();
      EXPECT_FALSE(result.status().message().empty()) << "trial " << trial;
    }
  }
}

TEST(CsvLedgerTest, LoadLabelsAppliesKnownAddresses) {
  std::stringstream csv;
  csv << kHeader
      << "0xaaa,0xbbb,1,1,1,21000,0\n"
      << "0xbbb,0xaaa,1,2,1,21000,0\n";
  auto ledger = std::move(CsvLedger::FromCsv(&csv)).ValueOrDie();

  std::stringstream labels;
  labels << "address,label\n"
         << "0xaaa,exchange\n"
         << "0xmissing,phish-hack\n";
  auto applied = ledger->LoadLabels(&labels);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.ValueOrDie(), 1);  // 0xmissing skipped
  const AccountId aaa = ledger->Resolve("0xaaa").ValueOrDie();
  EXPECT_EQ(ledger->accounts()[aaa].cls, AccountClass::kExchange);

  std::stringstream bad;
  bad << "address,label\n0xaaa,alien\n";
  EXPECT_EQ(ledger->LoadLabels(&bad).status().code(),
            StatusCode::kInvalidArgument);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(CsvLedgerTest, SimulatorExportRoundTrips) {
  // Export a simulated ledger to CSV, re-import it, and verify the
  // pipeline sees identical data: the same transactions bit for bit, in
  // the same order, and the same subgraph around every account. Seed 4
  // has rows sharing a timestamp, which must keep their exported order.
  for (uint64_t seed : {4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LedgerConfig config;
    config.num_normal = 300;
    config.num_exchange = 4;
    config.num_ico_wallet = 2;
    config.num_mining = 2;
    config.num_phish_hack = 3;
    config.num_bridge = 2;
    config.num_defi = 2;
    config.duration_days = 40.0;
    config.seed = seed;
    LedgerSimulator sim(config);
    ASSERT_TRUE(sim.Generate().ok());

    std::stringstream tx_csv, label_csv;
    WriteTransactionsCsv(sim, &tx_csv);
    WriteLabelsCsv(sim, &label_csv);

    auto imported = std::move(CsvLedger::FromCsv(&tx_csv)).ValueOrDie();
    auto applied = imported->LoadLabels(&label_csv);
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(applied.ValueOrDie(), 4 + 2 + 2 + 3 + 2 + 2);
    EXPECT_EQ(imported->AccountsOfClass(AccountClass::kExchange).size(), 4u);

    // Simulator id -> imported id; -1 for accounts without transactions,
    // which the export does not mention.
    std::vector<AccountId> to_csv(sim.accounts().size(), -1);
    for (const Account& account : sim.accounts()) {
      auto resolved =
          imported->Resolve("addr_" + std::to_string(account.id));
      if (resolved.ok()) to_csv[account.id] = resolved.ValueOrDie();
    }

    const auto& want = sim.transactions();
    const auto& got = imported->transactions();
    ASSERT_EQ(got.size(), want.size());
    int equal_timestamps = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i));
      EXPECT_EQ(got[i].from, to_csv[want[i].from]);
      EXPECT_EQ(got[i].to, to_csv[want[i].to]);
      EXPECT_EQ(Bits(got[i].value), Bits(want[i].value));
      EXPECT_EQ(Bits(got[i].timestamp), Bits(want[i].timestamp));
      EXPECT_EQ(Bits(got[i].gas_price), Bits(want[i].gas_price));
      EXPECT_EQ(Bits(got[i].gas_used), Bits(want[i].gas_used));
      EXPECT_EQ(got[i].is_contract_call, want[i].is_contract_call);
      equal_timestamps +=
          i > 0 && want[i].timestamp == want[i - 1].timestamp;
    }
    if (seed == 4) {
      EXPECT_GT(equal_timestamps, 0);
    }

    // The graph pipeline sees the same subgraph around every account,
    // which also exercises CsvLedger's counterparty index.
    graph::SamplingConfig sampling;
    int compared = 0;
    for (const Account& account : sim.accounts()) {
      const AccountId csv_center = to_csv[account.id];
      if (csv_center < 0) continue;
      SCOPED_TRACE("center " + std::to_string(account.id));
      auto sub_sim = graph::SampleSubgraph(sim, account.id, sampling);
      auto sub_csv = graph::SampleSubgraph(*imported, csv_center, sampling);
      ASSERT_TRUE(sub_sim.ok());
      ASSERT_TRUE(sub_csv.ok());
      const TxSubgraph& a = sub_sim.ValueOrDie();
      const TxSubgraph& b = sub_csv.ValueOrDie();
      ASSERT_EQ(b.nodes.size(), a.nodes.size());
      for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(b.nodes[i], to_csv[a.nodes[i]]);
      }
      EXPECT_EQ(b.center_index, a.center_index);
      EXPECT_EQ(b.center_class, a.center_class);
      EXPECT_EQ(b.is_contract, a.is_contract);
      ASSERT_EQ(b.txs.size(), a.txs.size());
      for (size_t i = 0; i < a.txs.size(); ++i) {
        EXPECT_EQ(b.txs[i].src, a.txs[i].src);
        EXPECT_EQ(b.txs[i].dst, a.txs[i].dst);
        EXPECT_EQ(Bits(b.txs[i].value), Bits(a.txs[i].value));
        EXPECT_EQ(Bits(b.txs[i].timestamp), Bits(a.txs[i].timestamp));
        EXPECT_EQ(Bits(b.txs[i].gas_price), Bits(a.txs[i].gas_price));
        EXPECT_EQ(Bits(b.txs[i].gas_used), Bits(a.txs[i].gas_used));
        EXPECT_EQ(b.txs[i].is_contract_call, a.txs[i].is_contract_call);
      }
      ++compared;
    }
    EXPECT_GT(compared, 300);
  }
}

TEST(CsvLedgerTest, DatasetBuildsFromImportedData) {
  LedgerConfig config;
  config.num_normal = 300;
  config.num_exchange = 6;
  config.duration_days = 40.0;
  config.seed = 8;
  LedgerSimulator sim(config);
  ASSERT_TRUE(sim.Generate().ok());
  std::stringstream tx_csv, label_csv;
  WriteTransactionsCsv(sim, &tx_csv);
  WriteLabelsCsv(sim, &label_csv);
  auto imported = std::move(CsvLedger::FromCsv(&tx_csv)).ValueOrDie();
  ASSERT_TRUE(imported->LoadLabels(&label_csv).ok());

  DatasetConfig ds_config;
  ds_config.target = AccountClass::kExchange;
  ds_config.max_positives = 4;
  ds_config.sampling.top_k = 5;
  ds_config.num_time_slices = 4;
  auto ds = BuildDataset(*imported, ds_config);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_GT(ds.ValueOrDie().num_positives(), 0);
}

}  // namespace
}  // namespace eth
}  // namespace dbg4eth
