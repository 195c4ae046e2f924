#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/math_util.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace dbg4eth {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad K");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad K");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad K");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, ResilienceCodesRenderByName) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
  EXPECT_EQ(Status::ResourceExhausted("full").ToString(),
            "ResourceExhausted: full");
  EXPECT_EQ(Status::Unavailable("down").ToString(), "Unavailable: down");
  EXPECT_EQ(Status::DataLoss("corrupt").ToString(), "DataLoss: corrupt");
}

TEST(StatusTest, OnlyUnavailableAndResourceExhaustedAreTransient) {
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::DeadlineExceeded("x").IsTransient());
  EXPECT_FALSE(Status::DataLoss("x").IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("x").IsTransient());
  EXPECT_FALSE(Status::Internal("x").IsTransient());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailingOp() { return Status::Internal("boom"); }

Status Chained() {
  DBG4ETH_RETURN_NOT_OK(FailingOp());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(Chained().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, StateRoundTripResumesTheStreamBitIdentically) {
  Rng original(42);
  for (int i = 0; i < 17; ++i) original.NextU64();

  Rng restored(0);  // Different seed; SetState must fully overwrite it.
  restored.SetState(original.State());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.NextU64(), restored.NextU64());
  }
}

TEST(RngTest, StateCapturesThePendingBoxMullerNormal) {
  // Box-Muller produces normals in pairs; a snapshot between the two
  // halves of a pair must replay the cached second half exactly.
  Rng original(7);
  (void)original.Normal();  // First half consumed; second half cached.

  Rng restored(99);
  restored.SetState(original.State());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(original.Normal(), restored.Normal());
  }
}

TEST(RngTest, SerializedStateRoundTrips) {
  Rng original(314);
  (void)original.Normal();  // Leave a cached normal in the state.
  for (int i = 0; i < 5; ++i) original.NextU64();

  std::ostringstream os;
  BinaryWriter writer(&os);
  WriteRngState(&writer, original);

  std::istringstream is(os.str());
  BinaryReader reader(&is);
  Rng restored(0);
  const Status st = ReadRngState(&reader, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(original.NextU64(), restored.NextU64());
  }
  EXPECT_EQ(original.Normal(), restored.Normal());
}

TEST(RngTest, ReadRngStateRejectsAForeignStream) {
  std::ostringstream os;
  BinaryWriter writer(&os);
  writer.WriteString("definitely-not-an-rng-state");
  std::istringstream is(os.str());
  BinaryReader reader(&is);
  Rng rng(1);
  EXPECT_FALSE(ReadRngState(&reader, &rng).ok());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
  }
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng rng(11);
  std::vector<double> samples(20000);
  for (double& s : samples) s = rng.Normal(2.0, 3.0);
  EXPECT_NEAR(Mean(samples), 2.0, 0.1);
  EXPECT_NEAR(StdDev(samples), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  std::vector<double> samples(20000);
  for (double& s : samples) s = rng.Exponential(0.5);
  EXPECT_NEAR(Mean(samples), 2.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  Rng rng(15);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.Categorical(w);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalAllZeroIsUniform) {
  Rng rng(21);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) ++counts[rng.Categorical(w)];
  for (int c : counts) EXPECT_GT(c, 2500);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(10, 5);
  ASSERT_EQ(sample.size(), 5u);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_NE(sample[i - 1], sample[i]);
  }
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(RngTest, SampleWithoutReplacementClampsK) {
  Rng rng(25);
  auto sample = rng.SampleWithoutReplacement(3, 10);
  EXPECT_EQ(sample.size(), 3u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(27);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(MathUtilTest, SigmoidSymmetry) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
}

TEST(MathUtilTest, MeanStdDev) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
}

TEST(MathUtilTest, PearsonCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, flat), 0.0);
}

TEST(MathUtilTest, Percentile) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(MathUtilTest, LogSumExpStable) {
  std::vector<double> v = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(v), 1000.0 + std::log(2.0), 1e-9);
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcdef", 3), "abc");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"Method", "F1"});
  table.AddRow({"GCN", "80.26"});
  table.AddRow("DBG4ETH", {99.51});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Method"), std::string::npos);
  EXPECT_NE(out.find("DBG4ETH"), std::string::npos);
  EXPECT_NE(out.find("99.51"), std::string::npos);
  // Every rendered line has the same width.
  auto lines = Split(out, '\n');
  size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width);
    }
  }
}

}  // namespace
}  // namespace dbg4eth
