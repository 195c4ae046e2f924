// Chaos tests of the HTTP layer: hostile clients (disconnect mid-response)
// plus fault injection at the net.accept / net.conn_read / net.conn_write
// failpoint sites, which every build compiles in. Like the serving chaos
// suite in this binary, these run in the tier-1 gate.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace dbg4eth {
namespace net {
namespace {

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisableAll();
    HttpServerConfig config;
    config.num_loops = 2;
    config.num_handler_threads = 2;
    config.sweep_interval_us = 10'000;
    server_ = std::make_unique<HttpServer>(config);
    server_->Route("GET", "/ping", [](const HttpRequest&) {
      return HttpResponse::Text(200, "pong\n");
    });
    server_->Route("GET", "/slow", [](const HttpRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return HttpResponse::Text(200, std::string(64 * 1024, 'x'));
    });
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    failpoint::DisableAll();
    server_->Shutdown();
  }

  HttpClientConfig FastClient() {
    HttpClientConfig config;
    config.io_timeout_us = 5'000'000;
    return config;
  }

  /// One /ping round trip on a fresh connection; true on a 200.
  bool PingOk() {
    HttpClient client("127.0.0.1", server_->port(), FastClient());
    auto response = client.Get("/ping");
    return response.ok() && response.ValueOrDie().status == 200;
  }

  std::unique_ptr<HttpServer> server_;
};

// --------------------------------------------------------------------------
// Hostile clients (no fault injection required).
// --------------------------------------------------------------------------

TEST_F(NetChaosTest, ClientDisconnectMidHandlingIsAbsorbed) {
  obs::Counter* aborts = obs::MetricsRegistry::Global()->CounterAt(
      "net_client_aborts_total",
      "Connections dropped by the peer mid-request or mid-response");
  const uint64_t aborts_before = aborts->Value();

  // Fire requests into the slow route and hang up while the handler is
  // still asleep; the response hits a dead socket.
  for (int i = 0; i < 4; ++i) {
    HttpClient client("127.0.0.1", server_->port(), FastClient());
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.SendRaw("GET /slow HTTP/1.1\r\n\r\n").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client.Disconnect();
  }

  // The server must shrug it off: wait for the handlers to land on the
  // closed connections, then verify it still serves and counted aborts.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(PingOk());
  EXPECT_GT(aborts->Value(), aborts_before);
  // All aborted connections were reaped (the ping client may linger
  // briefly until its close is noticed).
  EXPECT_LE(server_->open_connections(), 1);
}

TEST_F(NetChaosTest, GarbageBytesNeverKillTheServer) {
  const char* payloads[] = {
      "\x00\x01\x02\x03garbage",
      "GET / HTTP/9.9\r\n\r\n",
      "POST /ping HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
      "\r\n\r\n\r\n",
  };
  for (const char* payload : payloads) {
    HttpClient client("127.0.0.1", server_->port(), FastClient());
    ASSERT_TRUE(client.Connect().ok());
    (void)client.SendRaw(payload);
    client.Disconnect();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(PingOk());
}

// --------------------------------------------------------------------------
// Failpoint storms.
// --------------------------------------------------------------------------

TEST_F(NetChaosTest, AcceptFailureStormDropsSomeConnectionsNotAll) {
  ASSERT_TRUE(
      failpoint::Enable("net.accept", failpoint::EveryNth(2)).ok());

  int ok_count = 0;
  int dropped = 0;
  for (int i = 0; i < 8; ++i) {
    // Fresh connection each time so every iteration goes through accept.
    if (PingOk()) {
      ++ok_count;
    } else {
      ++dropped;
    }
  }
  EXPECT_GT(failpoint::FireCount("net.accept"), 0u);
  EXPECT_GE(ok_count, 1) << "every accept was dropped";
  EXPECT_GE(dropped, 1) << "the failpoint never bit";

  // Recovery: with the point disabled, service is clean again.
  failpoint::Disable("net.accept");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(PingOk());
}

TEST_F(NetChaosTest, ConnReadFaultTearsDownConnectionServerSurvives) {
  ASSERT_TRUE(
      failpoint::Enable("net.conn_read", failpoint::Always()).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(PingOk());  // Every read site tears the connection down.
  }
  EXPECT_GT(failpoint::FireCount("net.conn_read"), 0u);
  failpoint::Disable("net.conn_read");
  EXPECT_TRUE(PingOk());
  EXPECT_LE(server_->open_connections(), 1);
}

TEST_F(NetChaosTest, ConnWriteFaultCutsResponseMidFlightServerSurvives) {
  ASSERT_TRUE(
      failpoint::Enable("net.conn_write", failpoint::Always()).ok());
  // The request parses and the handler runs; the response write is cut.
  HttpClient client("127.0.0.1", server_->port(), FastClient());
  auto response = client.Get("/ping");
  EXPECT_FALSE(response.ok());
  EXPECT_GT(failpoint::FireCount("net.conn_write"), 0u);
  failpoint::Disable("net.conn_write");
  EXPECT_TRUE(PingOk());
}

TEST_F(NetChaosTest, IntermittentWriteFaultsUnderConcurrentLoad) {
  ASSERT_TRUE(failpoint::Enable("net.conn_write",
                                failpoint::WithProbability(0.3, 99))
                  .ok());
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        if (PingOk()) ++ok_count;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Some make it through, and the server never wedges.
  EXPECT_GT(ok_count.load(), 0);
  failpoint::Disable("net.conn_write");
  EXPECT_TRUE(PingOk());
}

TEST_F(NetChaosTest, ConnectionAcceptedDuringShutdownIsClosed) {
  // The acceptor holds the accepted socket for 300 ms before handing it to
  // a loop; Shutdown lands in that window, when the loops have nothing to
  // drain and exit.
  ASSERT_TRUE(
      failpoint::Enable("net.accept", failpoint::SleepFor(300'000)).ok());
  HttpClientConfig one_second;
  one_second.io_timeout_us = 1'000'000;
  HttpClient client("127.0.0.1", server_->port(), one_second);
  ASSERT_TRUE(client.Connect().ok());
  for (int i = 0; i < 1000 && failpoint::EvalCount("net.accept") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(failpoint::EvalCount("net.accept"), 1u);

  server_->Shutdown();
  EXPECT_EQ(server_->open_connections(), 0);
  // The client sees the close (EOF), not its 1 s receive timeout.
  char byte;
  EXPECT_EQ(::recv(client.fd(), &byte, 1, 0), 0);
}

}  // namespace
}  // namespace net
}  // namespace dbg4eth
