// Registry semantics of the fault-injection failpoints. These tests drive
// failpoint::Evaluate directly; the chaos suites drive the
// DBG4ETH_FAIL_POINT sites that call it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/failpoint.h"

namespace dbg4eth {
namespace failpoint {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { DisableAll(); }
};

TEST_F(FailpointTest, UnknownPointIsOkAndUncounted) {
  EXPECT_TRUE(Evaluate("fp.unknown").ok());
  EXPECT_FALSE(IsEnabled("fp.unknown"));
  EXPECT_EQ(EvalCount("fp.unknown"), 0u);
  EXPECT_EQ(FireCount("fp.unknown"), 0u);
}

TEST_F(FailpointTest, AlwaysFiresWithConfiguredCode) {
  ASSERT_TRUE(Enable("fp.a", Always(StatusCode::kDataLoss)).ok());
  EXPECT_TRUE(IsEnabled("fp.a"));
  for (int i = 0; i < 5; ++i) {
    const Status st = Evaluate("fp.a");
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  }
  EXPECT_EQ(EvalCount("fp.a"), 5u);
  EXPECT_EQ(FireCount("fp.a"), 5u);
}

TEST_F(FailpointTest, CustomMessagePropagates) {
  Spec spec = Always(StatusCode::kUnavailable);
  spec.message = "disk on fire";
  ASSERT_TRUE(Enable("fp.msg", spec).ok());
  EXPECT_EQ(Evaluate("fp.msg").message(), "disk on fire");
  // Default message names the point.
  ASSERT_TRUE(Enable("fp.msg2", Always()).ok());
  EXPECT_NE(Evaluate("fp.msg2").message().find("fp.msg2"), std::string::npos);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiplesOfN) {
  ASSERT_TRUE(Enable("fp.nth", EveryNth(3)).ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!Evaluate("fp.nth").ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(EvalCount("fp.nth"), 9u);
  EXPECT_EQ(FireCount("fp.nth"), 3u);
}

TEST_F(FailpointTest, AfterNPassesThenAlwaysFires) {
  ASSERT_TRUE(Enable("fp.after", AfterN(2)).ok());
  EXPECT_TRUE(Evaluate("fp.after").ok());
  EXPECT_TRUE(Evaluate("fp.after").ok());
  EXPECT_FALSE(Evaluate("fp.after").ok());
  EXPECT_FALSE(Evaluate("fp.after").ok());
  EXPECT_EQ(FireCount("fp.after"), 2u);
}

TEST_F(FailpointTest, ProbabilityZeroAndOneAreDegenerate) {
  ASSERT_TRUE(Enable("fp.p0", WithProbability(0.0)).ok());
  ASSERT_TRUE(Enable("fp.p1", WithProbability(1.0)).ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(Evaluate("fp.p0").ok());
    EXPECT_FALSE(Evaluate("fp.p1").ok());
  }
  EXPECT_EQ(FireCount("fp.p0"), 0u);
  EXPECT_EQ(FireCount("fp.p1"), 50u);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Spec spec = WithProbability(0.5, seed);
    EXPECT_TRUE(Enable("fp.det", spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!Evaluate("fp.det").ok());
    return fired;
  };
  const auto first = run(123);
  const auto again = run(123);  // Re-Enable resets the RNG and counters.
  const auto other = run(77);
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);  // Astronomically unlikely to collide.
  // A fair-ish coin: both outcomes occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointTest, SleepOnlyPointFiresWithoutError) {
  Spec spec = SleepFor(/*sleep_us=*/100);
  ASSERT_TRUE(Enable("fp.sleep", spec).ok());
  EXPECT_FALSE(spec.inject_error);
  EXPECT_TRUE(Evaluate("fp.sleep").ok());
  EXPECT_EQ(FireCount("fp.sleep"), 1u);
}

TEST_F(FailpointTest, DisableStopsInjection) {
  ASSERT_TRUE(Enable("fp.d", Always()).ok());
  EXPECT_FALSE(Evaluate("fp.d").ok());
  Disable("fp.d");
  EXPECT_FALSE(IsEnabled("fp.d"));
  EXPECT_TRUE(Evaluate("fp.d").ok());
  EXPECT_EQ(EvalCount("fp.d"), 0u);  // Counters die with the point.
}

TEST_F(FailpointTest, DisableAllClearsEveryPoint) {
  ASSERT_TRUE(Enable("fp.x", Always()).ok());
  ASSERT_TRUE(Enable("fp.y", Always()).ok());
  DisableAll();
  EXPECT_FALSE(IsEnabled("fp.x"));
  EXPECT_FALSE(IsEnabled("fp.y"));
  EXPECT_TRUE(Evaluate("fp.x").ok());
  EXPECT_TRUE(Evaluate("fp.y").ok());
}

TEST_F(FailpointTest, RejectsInvalidSpecs) {
  EXPECT_FALSE(Enable("fp.bad", EveryNth(0)).ok());
  EXPECT_FALSE(Enable("fp.bad", WithProbability(1.5)).ok());
  EXPECT_FALSE(Enable("fp.bad", WithProbability(-0.1)).ok());
  EXPECT_FALSE(IsEnabled("fp.bad"));
  Spec ok_code = Always(StatusCode::kOk);  // "Inject success" is nonsense.
  EXPECT_FALSE(Enable("fp.bad", ok_code).ok());
}

}  // namespace
}  // namespace failpoint
}  // namespace dbg4eth
