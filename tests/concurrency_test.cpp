// Concurrency stress suite for the structures on the trigger monitor's hot
// path: ObjectCache shards, BlockingQueue, ThreadPool shutdown, and atomic
// WAL-backed commits racing readers and the trigger's tail. These
// tests are labelled `stress` so the CI matrix runs them under
// ThreadSanitizer (see ci.sh) — their value is as much the interleavings
// they generate under TSan as the assertions they make.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/queue.h"
#include "common/thread_pool.h"
#include "core/serving_site.h"
#include "db/database.h"
#include "odg/graph.h"
#include "pagegen/olympic.h"
#include "pagegen/renderer.h"
#include "trigger/trigger_monitor.h"
#include "wal/wal.h"

namespace nagano {
namespace {

std::string Key(int i) { return "/page/" + std::to_string(i); }

// --- ObjectCache: readers racing Put / Invalidate ---------------------------

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
        cache.Put(Key(i), "upd-" + std::to_string(r));
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

// --- atomic commits: WAL-backed batches racing readers ---------------------

// Self-cleaning mkdtemp directory for WAL streams.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/nagano_concurrency_XXXXXX";
    const char* created = ::mkdtemp(tmpl);
    EXPECT_NE(created, nullptr);
    path = created;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// Every commit rewrites all rows of a 4-shard WAL-backed table to one
// generation. Commits append and sync under the commit mutex and take the
// shard locks only to apply, so this races full-table reads, point reads
// and a change-feed tail against the flush and the apply: every read must
// see exactly one generation, and every feed page whole batches.
TEST(CommitConcurrencyTest, WalBackedBatchesRaceReaders) {
  constexpr int kRows = 16;
  constexpr int kRounds = 60;
  TempDir dir;
  wal::WalOptions wal_options;
  wal_options.dir = dir.path;
  auto wals = wal::OpenShardWals(std::move(wal_options), 4);
  ASSERT_TRUE(wals.ok()) << wals.status().ToString();
  db::DatabaseOptions options;
  options.shards = 4;
  options.shard_wals = wals.value().pointers();
  db::Database db(std::move(options));
  ASSERT_TRUE(db.CreateTable("gen", {{"id", db::ColumnType::kInt},
                                     {"gen", db::ColumnType::kInt}})
                  .ok());
  const auto generation = [&](int64_t g) {
    db::WriteBatch batch;
    for (int i = 0; i < kRows; ++i) {
      batch.Upsert("gen", {db::Value(int64_t(i)), db::Value(g)});
    }
    return db.Commit(std::move(batch));
  };
  ASSERT_TRUE(generation(0).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0}, reads{0};
  std::vector<std::thread> readers;
  readers.emplace_back([&] {  // whole-table reads
    while (!stop.load(std::memory_order_relaxed)) {
      std::set<int64_t> seen;
      db.Read("gen", db::RowFilter::All(), [&](const db::Row& row) {
        seen.insert(std::get<int64_t>(row[1]));
      });
      if (seen.size() != 1) torn.fetch_add(1, std::memory_order_relaxed);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  readers.emplace_back([&] {  // point reads across shards
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kRows; ++i) {
        db.Read("gen", db::RowFilter::Key(db::Value(int64_t(i))),
                [](const db::Row&) {});
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  readers.emplace_back([&] {  // a tail reading the feed in small pages
    db::ChangeCursor cursor = db.AppliedCursor();
    while (!stop.load(std::memory_order_relaxed)) {
      auto page = db.ReadChanges(cursor, 3);
      if (!page.ok()) continue;
      const auto& records = page.value().records;
      if (records.size() % kRows != 0 ||
          (!records.empty() &&
           records.back().seqno != records.back().batch_end)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      cursor = page.value().next;
    }
  });

  Status committed = Status::Ok();
  for (int g = 1; g <= kRounds && committed.ok(); ++g) {
    committed = generation(g);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(db.LastSeqno(), uint64_t{kRows} * (kRounds + 1));
}

// A WAL-backed 4-shard site with the trigger running and the result feed
// landing, one update at a time. Concurrent readers of the current event's
// page and of the medal table check every body: an event page lists
// medallists iff its status is final and shows no result while still
// "scheduled"; the medal table awards as many golds as silvers and
// bronzes. A scoring result split across commits lets the tail render a
// page between them.
TEST(CommitConcurrencyTest, PagesNeverShowHalfAResult) {
  TempDir dir;
  metrics::MetricRegistry registry;
  wal::WalOptions wal_options;
  wal_options.dir = dir.path;
  wal_options.metrics.registry = &registry;
  auto wals = wal::OpenShardWals(std::move(wal_options), 4);
  ASSERT_TRUE(wals.ok()) << wals.status().ToString();

  core::SiteOptions options;
  options.olympic.days = 2;
  options.olympic.num_sports = 12;
  options.olympic.events_per_sport = 16;
  options.olympic.athletes_per_event = 4;
  options.olympic.num_countries = 4;
  options.olympic.initial_news_articles = 1;
  options.olympic.languages = {"en"};
  options.metrics.registry = &registry;
  db::DatabaseOptions db_options;
  db_options.shards = 4;
  db_options.shard_wals = wals.value().pointers();
  db_options.metrics.registry = &registry;
  auto database = std::make_unique<db::Database>(std::move(db_options));
  ASSERT_TRUE(pagegen::OlympicSite::Build(options.olympic, database.get()).ok());
  const int64_t events = static_cast<int64_t>(database->RowCount("events"));
  auto site_or = core::ServingSite::CreateAround(options, std::move(database));
  ASSERT_TRUE(site_or.ok()) << site_or.status().ToString();
  core::ServingSite& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  std::atomic<int64_t> current{1};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bodies{0}, torn{0};
  std::mutex example_mutex;
  std::string example;
  const auto torn_medal_table = [](const std::string& body) {
    // Every final event awards one gold, one silver and one bronze.
    int64_t sums[3] = {0, 0, 0};
    for (size_t at = body.find("</a></td>"); at != std::string::npos;
         at = body.find("</a></td>", at + 1)) {
      size_t cell = at + 4;
      for (int64_t& sum : sums) {
        cell = body.find("<td>", cell) + 4;
        sum += std::stoll(body.substr(cell, body.find('<', cell) - cell));
      }
    }
    return sums[0] != sums[1] || sums[1] != sums[2];
  };
  const auto torn_event_page = [](const std::string& body) {
    const auto has = [&](const char* text) {
      return body.find(text) != std::string::npos;
    };
    // Results link their athletes; medallists close the page.
    return (has("/athlete/") && has("Status: scheduled")) ||
           has("Gold: ") != has("Status: final");
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const std::string& page :
             {pagegen::OlympicSite::EventPage(
                  current.load(std::memory_order_relaxed)),
              pagegen::OlympicSite::MedalsPage()}) {
          const auto out = site.Serve(page, /*include_body=*/true);
          if (out.body.empty()) continue;
          bodies.fetch_add(1, std::memory_order_relaxed);
          const bool event_page = page != pagegen::OlympicSite::MedalsPage();
          if (event_page ? torn_event_page(out.body)
                         : torn_medal_table(out.body)) {
            torn.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard lock(example_mutex);
            if (example.empty()) example = page + ":\n" + out.body;
          }
        }
      }
    });
  }

  // Medallists come from the event's own sport, so countries repeat.
  const int64_t per_sport = options.olympic.athletes_per_event * 2;
  Status fed = Status::Ok();
  for (int64_t event = 1; event <= events && fed.ok(); ++event) {
    current.store(event, std::memory_order_relaxed);
    const int64_t first_athlete =
        (event - 1) / options.olympic.events_per_sport * per_sport + 1;
    for (int64_t rank = 1; rank <= 3 && fed.ok(); ++rank) {
      fed = site.RecordResult(event, rank,
                              first_athlete + (event + rank) % per_sport,
                              90.0 - rank);
      site.Quiesce();
    }
    if (fed.ok()) fed = site.CompleteEvent(event);
    site.Quiesce();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  site.StopTrigger();
  ASSERT_TRUE(fed.ok()) << fed.ToString();
  EXPECT_GT(bodies.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << example;
  auto verified = site.VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().ToString();
}

}  // namespace
}  // namespace nagano
