// Tests of the benchmark's own parts: input generators, the percentile
// rule, and FIFO response matching on pipelined connections.
#include <poll.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "net/server.h"
#include "pipelined_client.h"

namespace perfbench {
namespace {

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(42, 500.0, 2.0);
  const std::vector<double> b = PoissonSchedule(42, 500.0, 2.0);
  const std::vector<double> c = PoissonSchedule(43, 500.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonScheduleTest, IncreasingWithinDurationAtTheRate) {
  const std::vector<double> offsets = PoissonSchedule(7, 1000.0, 10.0);
  ASSERT_FALSE(offsets.empty());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_LT(offsets[i - 1], offsets[i]);
  }
  EXPECT_GE(offsets.front(), 0.0);
  EXPECT_LT(offsets.back(), 10.0);
  EXPECT_EQ(offsets.size(), 10000u);
  // Exponential gaps: the mean gap is 1/rate and about e^-1 of the gaps
  // exceed it.
  size_t long_gaps = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] - offsets[i - 1] > 1e-3) ++long_gaps;
  }
  EXPECT_NEAR(static_cast<double>(long_gaps) / offsets.size(), 0.3679, 0.02);
}

TEST(StreamSeedTest, StreamsAreIndependentAndStable) {
  EXPECT_EQ(StreamSeed(1, "arrivals"), StreamSeed(1, "arrivals"));
  EXPECT_NE(StreamSeed(1, "arrivals"), StreamSeed(1, "draws"));
  EXPECT_NE(StreamSeed(1, "arrivals"), StreamSeed(2, "arrivals"));
}

TEST(WeightedSamplerTest, SameSeedSameDraws) {
  std::vector<double> weights;
  for (int i = 0; i < 1000; ++i) weights.push_back(1 + i % 17);
  const WeightedSampler sampler(weights);
  SplitMix64 a(9), b(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Draw(&a), sampler.Draw(&b));
}

TEST(WeightedSamplerTest, FrequenciesFollowTheWeights) {
  const WeightedSampler sampler({4.0, 2.0, 0.0, 1.0, 1.0});
  SplitMix64 rng(3);
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const size_t index = sampler.Draw(&rng);
    ASSERT_LT(index, 5u);
    ++counts[index];
  }
  EXPECT_EQ(counts[2], 0);  // Zero weight: never drawn.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[3], 4.0, 0.15);
  EXPECT_NEAR(static_cast<double>(counts[3]) / counts[4], 1.0, 0.05);
}

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(SupportsQuantile(1000, 0.99));   // Rank 990: 10 beyond.
  EXPECT_FALSE(SupportsQuantile(999, 0.99));   // Rank 990: 9 beyond.
  EXPECT_TRUE(SupportsQuantile(999, 0.95));
  EXPECT_TRUE(SupportsQuantile(200, 0.95));    // Rank 190: 10 beyond.
  EXPECT_FALSE(SupportsQuantile(199, 0.95));
  EXPECT_FALSE(SupportsQuantile(0, 0.5));
  EXPECT_TRUE(SupportsQuantile(5, 0.5, 2));
}

TEST(PercentileRuleTest, NearestRankQuantile) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Quantile(&values, 0.5), 50.0);
  EXPECT_EQ(Quantile(&values, 0.99), 99.0);
  EXPECT_EQ(Quantile(&values, 1.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  std::vector<double> empty;
  EXPECT_EQ(Quantile(&empty, 0.5), 0.0);
}

TEST(PercentileRuleTest, TimeSlicesFollowTimeWithEqualCounts) {
  // Ten samples given in reverse time order, three slices of 3, 3 and 4.
  std::vector<double> at_s, values;
  for (int i = 9; i >= 0; --i) {
    at_s.push_back(i);
    values.push_back(100.0 + i);
  }
  const std::vector<std::vector<size_t>> slices = TimeSlices(at_s, 3);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], (std::vector<size_t>{9, 8, 7}));  // Times 0, 1, 2.
  EXPECT_EQ(slices[1], (std::vector<size_t>{6, 5, 4}));
  EXPECT_EQ(slices[2], (std::vector<size_t>{3, 2, 1, 0}));
  EXPECT_EQ(SliceQuantile(values, slices[0], 0.5), 101.0);
  EXPECT_EQ(SliceQuantile(values, slices[2], 1.0), 109.0);
  EXPECT_EQ(TimeSlices(at_s, 0).size(), 1u);
  EXPECT_EQ(TimeSlices(at_s, 50).size(), 10u);
}

TEST(ResponseParserTest, ReassemblesResponsesSplitAcrossReads) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst"
      "HTTP/1.1 404 Not Found\r\ncontent-length: 6\r\nConnection: close"
      "\r\n\r\nsecond";
  ResponseParser parser;
  std::vector<ParsedResponse> parsed;
  dbg4eth::Status error;
  for (char c : wire) {
    parser.Feed(&c, 1);
    ParsedResponse response;
    while (parser.Next(&response, &error)) parsed.push_back(response);
    ASSERT_TRUE(error.ok()) << error.ToString();
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].status, 200);
  EXPECT_EQ(parsed[0].body, "first");
  EXPECT_FALSE(parsed[0].close);
  EXPECT_EQ(parsed[1].status, 404);
  EXPECT_EQ(parsed[1].body, "second");
  EXPECT_TRUE(parsed[1].close);
}

/// A server whose handler echoes the body after a delay that varies per
/// request, so answers take different times to produce.
class EchoServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbg4eth::net::HttpServerConfig config;
    config.num_handler_threads = 4;
    server_ = std::make_unique<dbg4eth::net::HttpServer>(config);
    server_->Route("POST", "/echo", [](const dbg4eth::net::HttpRequest& r) {
      const int delay_us = static_cast<int>(r.body.size() % 7) * 150;
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      return dbg4eth::net::HttpResponse::Text(200, r.body);
    });
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Shutdown(); }

  std::unique_ptr<dbg4eth::net::HttpServer> server_;
};

TEST_F(EchoServerTest, PipelinedResponsesMatchTheirRequestsInOrder) {
  auto opened = PipelinedConnection::Open(server_->port());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PipelinedConnection& conn = *opened.ValueOrDie();
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    conn.Send(100 + i, PostRequest("/echo", "request-" + std::string(i, 'x')));
  }
  ASSERT_TRUE(conn.Flush().ok());
  std::vector<PipelinedConnection::Completion> done;
  while (done.size() < kRequests) {
    ASSERT_TRUE(conn.Flush().ok());
    pollfd fd{conn.fd(), POLLIN, 0};
    ASSERT_GT(::poll(&fd, 1, 5000), 0) << "timed out";
    ASSERT_TRUE(conn.Receive(&done).ok());
  }
  EXPECT_EQ(conn.outstanding(), 0u);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(done[i].tag, static_cast<uint64_t>(100 + i));
    EXPECT_EQ(done[i].response.status, 200);
    EXPECT_EQ(done[i].response.body, "request-" + std::string(i, 'x'));
  }
}

TEST_F(EchoServerTest, OpenLoopMatchesEveryOutcomeAcrossConnections) {
  std::vector<std::unique_ptr<PipelinedConnection>> connections;
  for (int c = 0; c < 3; ++c) {
    auto opened = PipelinedConnection::Open(server_->port());
    ASSERT_TRUE(opened.ok());
    connections.push_back(std::move(opened).ValueOrDie());
  }
  // A burst (every request due at once) followed by a paced tail.
  std::vector<double> offsets;
  std::vector<std::string> wires;
  for (int i = 0; i < 60; ++i) {
    offsets.push_back(i < 30 ? 0.0 : 0.001 * (i - 30));
    wires.push_back(PostRequest("/echo", "body-" + std::to_string(i)));
  }
  std::vector<RequestOutcome> outcomes;
  ASSERT_TRUE(RunOpenLoop(connections, offsets, wires, Clock::now(), 10.0,
                          &outcomes)
                  .ok());
  ASSERT_EQ(outcomes.size(), wires.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].answered) << i;
    EXPECT_EQ(outcomes[i].response.status, 200);
    EXPECT_EQ(outcomes[i].response.body, "body-" + std::to_string(i));
    EXPECT_GT(outcomes[i].latency_us, 0.0);
    EXPECT_GE(outcomes[i].send_lag_us, 0.0);
  }
}

}  // namespace
}  // namespace perfbench
