#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_util.h"
#include "common/thread_pool.h"
#include "serve/result_cache.h"
#include "serve/server_stats.h"

namespace dbg4eth {
namespace serve {
namespace {

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4, 128);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&counter] { counter.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, OneWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1, 16);
  std::vector<int> order;  // Written by the one worker only.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&order, i] { order.push_back(i); }));
  }
  pool.Shutdown();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, IdleWorkerRunsALoneTaskWithoutShutdown) {
  std::promise<void> ran;
  ThreadPool pool(1, 4);
  // Let the worker go idle on the empty queue first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran.set_value(); }));
  // The submit alone wakes the worker: nothing else arrives, and the pool
  // is not shut down until the task has run.
  EXPECT_EQ(ran.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
}

TEST(ThreadPoolTest, TrySubmitReportsFullAtCapacity) {
  ThreadPool pool(1, 2);
  // Task `i` announces that the worker picked it up, then holds the
  // worker until released.
  std::promise<void> entered[2];
  std::promise<void> release[2];
  std::shared_future<void> gate[2] = {release[0].get_future().share(),
                                      release[1].get_future().share()};
  auto holding = [&](int i) {
    return [&entered, gate, i] {
      entered[i].set_value();
      gate[i].wait();
    };
  };
  ASSERT_TRUE(pool.TrySubmit(holding(0)));
  entered[0].get_future().wait();  // The worker holds task 0.
  ASSERT_TRUE(pool.TrySubmit(holding(1)));
  ASSERT_TRUE(pool.TrySubmit([] {}));
  EXPECT_EQ(pool.pending(), 2u);
  EXPECT_FALSE(pool.TrySubmit([] {}));  // Queue at capacity.
  EXPECT_EQ(pool.pending(), 2u);

  // A pick-up frees exactly one slot.
  release[0].set_value();
  entered[1].get_future().wait();  // The worker holds task 1.
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {}));
  release[1].set_value();
  pool.Shutdown();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndRejectsNewOnes) {
  ThreadPool pool(1, 64);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.fetch_add(1);
    }));
  }
  pool.Shutdown();
  // Every accepted task ran before Shutdown returned.
  EXPECT_EQ(counter.load(), 32);
  // Post-shutdown submissions are rejected, not silently dropped-but-true.
  EXPECT_FALSE(pool.TrySubmit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2, 8);
  // Both workers are idle on the empty queue: Shutdown must wake them.
  pool.Shutdown();
  pool.Shutdown();  // Second call must not crash or double-join.
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, SurvivesThrowingTasks) {
  ThreadPool pool(2, 32);
  std::atomic<int> thrown{0};
  std::atomic<int> ok_tasks{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&thrown] {
      thrown.fetch_add(1);
      throw std::runtime_error("task exploded");
    }));
    ASSERT_TRUE(pool.TrySubmit([&ok_tasks] { ok_tasks.fetch_add(1); }));
  }
  pool.Shutdown();
  // Workers caught the exceptions and kept executing later tasks.
  EXPECT_EQ(thrown.load(), 10);
  EXPECT_EQ(ok_tasks.load(), 10);
}

// --------------------------------------------------------------------------
// ResultCache
// --------------------------------------------------------------------------

TEST(ResultCacheTest, PutGetRoundTrip) {
  ResultCache cache(ResultCacheConfig{16, 2});
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, {100, 0.75, 0});
  auto got = cache.Get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->height, 100u);
  EXPECT_DOUBLE_EQ(got->probability, 0.75);
}

TEST(ResultCacheTest, EntriesKeepTheGenerationThatScoredThem) {
  ResultCache cache(ResultCacheConfig{16, 2});
  cache.Put(1, {100, 0.25, 3});
  cache.Put(1, {101, 0.5, 4});
  auto got = cache.Get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->height, 101u);
  EXPECT_DOUBLE_EQ(got->probability, 0.5);
  EXPECT_EQ(got->generation, 4u);

  // A refresh at the same height replaces the generation with the score.
  cache.Put(1, {101, 0.625, 5});
  got = cache.Get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->probability, 0.625);
  EXPECT_EQ(got->generation, 5u);
}

TEST(ResultCacheTest, KeepsOneEntryPerAccountAtItsNewestHeight) {
  ResultCache cache(ResultCacheConfig{16, 2});
  cache.Put(1, {100, 0.25, 0});
  // A taller ledger's score replaces the account's entry...
  EXPECT_FALSE(cache.Put(1, {102, 0.5, 0}));
  EXPECT_EQ(cache.size(), 1u);
  // ...and a pass at an older height that finishes later does not put
  // its score back over the newer one.
  EXPECT_FALSE(cache.Put(1, {101, 0.75, 0}));
  const auto got = cache.Get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->height, 102u);
  EXPECT_DOUBLE_EQ(got->probability, 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // One shard so the LRU order is globally observable.
  ResultCache cache(ResultCacheConfig{3, 1});
  EXPECT_FALSE(cache.Put(1, {1, 0.1, 0}));
  EXPECT_FALSE(cache.Put(2, {1, 0.2, 0}));
  EXPECT_FALSE(cache.Put(3, {1, 0.3, 0}));
  ASSERT_TRUE(cache.Get(1).has_value());    // Refresh 1; LRU is now 2.
  EXPECT_TRUE(cache.Put(4, {1, 0.4, 0}));   // Evicts 2.
  EXPECT_FALSE(cache.Put(4, {2, 0.5, 0}));  // Replaces 4 in place.
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
}

TEST(ResultCacheTest, ConcurrentMixedAccessIsSafe) {
  ResultCache cache(ResultCacheConfig{128, 8});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        const eth::AccountId address = (t * 37 + i) % 200;
        if (i % 3 == 0) {
          cache.Put(address, {static_cast<uint64_t>(i), address * 0.001, 0});
        } else {
          auto got = cache.Get(address);
          if (got) {
            EXPECT_DOUBLE_EQ(got->probability, address * 0.001);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), cache.capacity());
}

// --------------------------------------------------------------------------
// ServerStats (a view over its own obs::MetricsRegistry)
// --------------------------------------------------------------------------

/// Every instrument of `registry` as "name{labels}" -> its count: a
/// counter's value or a histogram's number of samples.
std::map<std::string, uint64_t> InstrumentCounts(
    const obs::MetricsRegistry& registry) {
  std::map<std::string, uint64_t> counts;
  for (const auto& family : registry.TakeSnapshot()) {
    for (const auto& inst : family.instruments) {
      counts[family.name + inst.labels] =
          family.kind == obs::MetricsRegistry::Kind::kHistogram
              ? inst.histogram.count
              : inst.counter_value;
    }
  }
  return counts;
}

TEST(ServerStatsTest, JsonKeepsEveryDigitOfLatencies) {
  ServerStats::Snapshot snapshot;
  snapshot.cold.count = 2;
  snapshot.cold.p50_us = 1234567.5;
  snapshot.cold.max_us = 98765432.25;
  snapshot.cache_hit_rate = 1.0 / 3.0;
  const std::string out = ServerStats::ToJson(snapshot);
  EXPECT_NE(out.find("\"p50_us\": 1234567.5"), std::string::npos) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << out;
  const json::JsonValue* cold = parsed.ValueOrDie().Find("cold");
  ASSERT_NE(cold, nullptr);
  for (const auto& [key, want] :
       {std::pair<const char*, double>{"p50_us", snapshot.cold.p50_us},
        {"max_us", snapshot.cold.max_us}}) {
    ASSERT_NE(cold->Find(key), nullptr) << key;
    const double got = cold->Find(key)->number_value;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << key << out;
  }
  const double rate = parsed.ValueOrDie().Find("cache_hit_rate")->number_value;
  EXPECT_EQ(std::memcmp(&rate, &snapshot.cache_hit_rate, sizeof(double)), 0)
      << out;
}

/// An answered request as InferenceService::Resolve books it.
ScoreResult Answered(double latency_us, bool cache_hit, bool stale = false) {
  ScoreResult result;
  result.cache_hit = cache_hit;
  result.stale = stale;
  result.latency_us = latency_us;
  return result;
}

ScoreResult Failed(Status status) {
  ScoreResult result;
  result.status = std::move(status);
  return result;
}

TEST(ServerStatsTest, CountersAndSnapshot) {
  ServerStats stats;
  stats.Record(Answered(1000.0, /*cache_hit=*/false));
  stats.Record(Answered(1200.0, /*cache_hit=*/false));
  stats.Record(Answered(10.0, /*cache_hit=*/true));
  stats.Record(Failed(Status::NotFound("unknown address")));
  stats.RecordColdPass(2);
  stats.RecordColdPass(4);

  const ServerStats::Snapshot snapshot = stats.TakeSnapshot();
  EXPECT_EQ(snapshot.requests, 3u);
  EXPECT_EQ(snapshot.cache_hits, 1u);
  EXPECT_EQ(snapshot.errors, 1u);
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_DOUBLE_EQ(snapshot.avg_batch_size, 3.0);
  EXPECT_NEAR(snapshot.cache_hit_rate, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(snapshot.cold.count, 2u);
  EXPECT_EQ(snapshot.hit.count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.hit.max_us, 10.0);
  EXPECT_GE(snapshot.cold.p50_us, 1000.0);

  // The remaining event kinds; then every event is found booked exactly
  // once, in the stats' own registry, and nowhere else in it. A failure
  // books by the status its client sees: 504 as a deadline expiry, 429
  // as a shed, whatever raised it.
  stats.Record(Answered(50.0, /*cache_hit=*/false, /*stale=*/true));
  stats.Record(Failed(Status::DeadlineExceeded("deadline expired")));
  stats.Record(Failed(Status::ResourceExhausted("load shed")));
  stats.RecordRetry();
  stats.RecordCacheAccess(/*hit=*/true);
  stats.RecordCacheAccess(/*hit=*/false);
  stats.RecordCacheAccess(/*hit=*/false);
  stats.RecordCacheEviction();
  const std::map<std::string, uint64_t> expected = {
      {"serve_cache_events_total{outcome=\"eviction\"}", 1},
      {"serve_cache_events_total{outcome=\"hit\"}", 1},
      {"serve_cache_events_total{outcome=\"miss\"}", 2},
      {"serve_cold_passes_total", 2},
      {"serve_deadline_exceeded_total", 1},
      {"serve_errors_total", 1},
      {"serve_latency_us{path=\"cold\"}", 2},
      {"serve_latency_us{path=\"hit\"}", 1},
      {"serve_latency_us{path=\"stale\"}", 1},
      {"serve_requests_per_pass", 2},
      {"serve_requests_total{path=\"cold\"}", 2},
      {"serve_requests_total{path=\"hit\"}", 1},
      {"serve_requests_total{path=\"stale\"}", 1},
      {"serve_retries_total", 1},
      {"serve_shed_total", 1},
  };
  EXPECT_EQ(InstrumentCounts(stats.registry()), expected);
  const ServerStats::Snapshot after = stats.TakeSnapshot();
  EXPECT_EQ(after.requests, 4u);
  EXPECT_EQ(after.stale_served, 1u);
  EXPECT_EQ(after.stale.count, 1u);
  EXPECT_EQ(after.deadline_exceeded, 1u);
  EXPECT_EQ(after.shed, 1u);
  EXPECT_EQ(after.retried, 1u);
}

TEST(ServerStatsTest, ConcurrentRecordingIsSafe) {
  ServerStats stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < 1000; ++i) {
        stats.Record(Answered(100.0 + i, /*cache_hit=*/i % 4 == 0));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const ServerStats::Snapshot snapshot = stats.TakeSnapshot();
  EXPECT_EQ(snapshot.requests, 8000u);
  EXPECT_EQ(snapshot.cache_hits, 2000u);
  EXPECT_EQ(snapshot.cold.count + snapshot.hit.count, 8000u);
}

}  // namespace
}  // namespace serve
}  // namespace dbg4eth
