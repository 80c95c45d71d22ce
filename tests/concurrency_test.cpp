// Concurrency stress suite for the structures on the trigger monitor's hot
// path: ObjectCache shards, BlockingQueue, and ThreadPool shutdown. These
// tests are labelled `stress` so the CI matrix runs them under
// ThreadSanitizer (see ci.sh) — their value is as much the interleavings
// they generate under TSan as the assertions they make.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/queue.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "trigger/trigger_monitor.h"

namespace nagano {
namespace {

std::string Key(int i) { return "/page/" + std::to_string(i); }

// --- ObjectCache: readers racing Put / UpdateInPlace / Invalidate -----------

TEST(CacheConcurrencyTest, ReadersRacingPutUpdateInvalidate) {
  cache::ObjectCache cache;
  constexpr int kKeys = 64;
  constexpr int kWriterRounds = 400;
  for (int i = 0; i < kKeys; ++i) cache.Put(Key(i), "seed");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < kKeys; ++i) {
          auto obj = cache.Lookup(Key(i));
          ++n;
          if (obj != nullptr) {
            // The snapshot a reader holds stays internally consistent even
            // while writers replace the entry.
            EXPECT_FALSE(obj->body.empty());
            EXPECT_GE(obj->version, 1u);
          }
        }
      }
      lookups.fetch_add(n, std::memory_order_relaxed);
    });
  }

  std::thread putter([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 0; i < kKeys; i += 2) cache.Put(Key(i), "put-" + std::to_string(r));
    }
  });
  std::thread updater([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 1; i < kKeys; i += 2) {
        cache.UpdateInPlace(Key(i), "upd-" + std::to_string(r));
      }
    }
  });
  std::thread invalidator([&] {
    for (int r = 0; r < kWriterRounds; ++r) {
      for (int i = 3; i < kKeys; i += 8) {
        cache.Invalidate(Key(i));
        cache.Put(Key(i), "back-" + std::to_string(r));
      }
    }
  });

  putter.join();
  updater.join();
  invalidator.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  const cache::CacheStats stats = cache.stats();
  // Every Lookup counted exactly one hit or miss.
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  // Entry bookkeeping balances: inserts in, invalidations out. Nothing
  // else ever drops an entry.
  EXPECT_EQ(stats.inserts - stats.invalidations, stats.entries);
  EXPECT_EQ(stats.entries, cache.Snapshot().size());
  EXPECT_GT(stats.updates_in_place, 0u);
}

// --- BlockingQueue: MPMC with exact accounting ------------------------------

TEST(QueueConcurrencyTest, MpmcDrainAccountsForEveryPush) {
  BlockingQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;

  std::atomic<long long> pushed_sum{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      long long sum = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        if (queue.Push(value)) sum += value;
      }
      pushed_sum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      long long sum = 0;
      uint64_t n = 0;
      while (auto item = queue.Pop()) {
        sum += *item;
        ++n;
      }
      popped_sum.fetch_add(sum, std::memory_order_relaxed);
      popped_count.fetch_add(n, std::memory_order_relaxed);
    });
  }

  for (auto& t : producers) t.join();
  queue.Close();  // consumers drain the remainder then exit
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped_count.load(), uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_EQ(queue.size(), 0u);
}

// --- ThreadPool: shutdown audit regressions ---------------------------------

TEST(ThreadPoolShutdownTest, ShutdownDrainsEveryQueuedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();  // drain-then-join: nothing queued may be dropped
  EXPECT_EQ(ran.load(), 500);
  EXPECT_FALSE(pool.Submit([] {}));  // closed for business
}

TEST(ThreadPoolShutdownTest, ConcurrentShutdownIsIdempotent) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  std::thread a([&] { pool.Shutdown(); });
  std::thread b([&] { pool.Shutdown(); });
  a.join();
  b.join();
  pool.Shutdown();  // and once more for good measure
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolShutdownTest, ThrowingTasksNeitherHangWaitNorKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&, i] {
      if (i % 2 == 0) throw std::runtime_error("render failed");
      ran.fetch_add(1);
    });
  }
  pool.Wait();  // must return even though half the tasks threw
  EXPECT_EQ(pool.tasks_completed(), 100u);
  EXPECT_EQ(pool.tasks_failed(), 50u);
  EXPECT_EQ(ran.load(), 50);
}

// --- TriggerMonitor: Stop() drains, Quiesce() never hangs -------------------

TEST(TriggerShutdownTest, StopDrainsQueuedChangesAndQuiesceReturns) {
  pagegen::OlympicConfig config;
  config.days = 2;
  config.num_sports = 2;
  config.events_per_sport = 2;
  config.athletes_per_event = 4;
  config.num_countries = 4;
  config.initial_news_articles = 2;

  db::Database db{db::DatabaseOptions{}};
  ASSERT_TRUE(pagegen::OlympicSite::Build(config, &db).ok());
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache cache;
  pagegen::PageRenderer renderer(&graph, &cache);
  pagegen::OlympicSite::RegisterGenerators(config, &db, &renderer);
  ASSERT_TRUE(renderer.RenderAndCache("/event/1").ok());

  trigger::TriggerOptions options;
  options.policy = trigger::CachePolicy::kDupUpdateInPlace;
  options.worker_threads = 4;
  trigger::TriggerMonitor monitor(
      &db, &graph, &cache, &renderer,
      [&db](const db::ChangeRecord& change) {
        return pagegen::OlympicSite::MapChangeToDataNodes(change, db);
      },
      options);

  monitor.Start();
  for (int rank = 1; rank <= 4; ++rank) {
    ASSERT_TRUE(
        pagegen::OlympicSite::RecordResult(&db, 1, rank, rank, 90.0 - rank)
            .ok());
  }
  // Stop without quiescing: drain-then-join must still process everything.
  monitor.Stop();
  // After a drained Stop, the quiesce barrier is already satisfied — if a
  // queued change had been dropped with its counter stuck, this would hang
  // (and the ctest timeout would flag it).
  monitor.Quiesce();

  const auto stats = monitor.stats();
  EXPECT_GT(stats.changes_processed, 0u);
  EXPECT_GT(stats.objects_updated, 0u);
  const auto cached = cache.Peek("/event/1");
  ASSERT_NE(cached, nullptr);
  const auto fresh = renderer.RenderOnly("/event/1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(cached->Materialize(), fresh.value());
  monitor.Stop();  // idempotent
}

}  // namespace
}  // namespace nagano
