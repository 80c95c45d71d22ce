// Chaos suite (ISSUE 3): deterministic fault-injection drills across the
// whole stack, all driven from a single FaultPlan seed.
//
// The headline scenario reproduces the paper's availability story under a
// scripted kill schedule: one complex dies, one Network Dispatcher dies,
// and the master's replication feed link is cut — all while the scoring
// feed keeps committing and clients keep requesting. The suite asserts the
// three properties the paper claims and DESIGN §8 promises:
//
//   1. availability: the fabric keeps serving (>= 99%) right through the
//      outage window ("elegant degradation", §4.2);
//   2. eventual freshness: once the faults lift, every replica cache is
//      byte-identical to a fresh render within the paper's 60 s bound (§3);
//   3. determinism: the same FaultPlan seed replays byte-identically — the
//      whole drill transcript, timeline included, matches across runs.
//
// A randomized variant draws the kill schedule from NAGANO_CHAOS_SEED
// (echoed on stdout so any failure is reproducible) and holds the same
// invariants. Smaller drills cover the degraded serving path (stale
// last-known-good pages + a bounded count of retries), trigger notification
// loss and duplication, database change-log faults, and the real HTTP
// server's socket faults and slow-loris defense.
//
// The crash-recovery drill (ISSUE 4) kills a WAL-backed replica site
// mid-commit — the injected `wal append` fault leaves a genuinely torn
// frame on disk — then warm-restarts it from checkpoint + WAL tail,
// catches it up through replication, and asserts the recovered site
// serves byte-identical pages to an uncrashed same-seed control run,
// with availability and the 60 s rejoin bound holding throughout.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/net.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/serving_site.h"
#include "db/database.h"
#include "http/client.h"
#include "http/server.h"
#include "pagegen/olympic.h"
#include "replication/replication.h"
#include "server/serving.h"
#include "trigger/trigger_monitor.h"
#include "wal/wal.h"
#include "workload/feed.h"
#include "workload/sampler.h"
#include "workload/scenarios.h"

namespace nagano {
namespace {

// ---------------------------------------------------------------------------
// Plan-building helpers
// ---------------------------------------------------------------------------

fault::FaultRule WindowRule(std::string site, std::string operation,
                            double from_s, double until_s) {
  fault::FaultRule rule;
  rule.subsystem = "fabric";
  rule.site = std::move(site);
  rule.operation = std::move(operation);
  rule.kind = fault::FaultKind::kWindow;
  rule.from = static_cast<TimeNs>(from_s * kSecond);
  rule.until = static_cast<TimeNs>(until_s * kSecond);
  return rule;
}

fault::FaultRule LinkCutRule(std::string child, std::string feed,
                             double from_s, double until_s) {
  fault::FaultRule rule;
  rule.subsystem = "replication";
  rule.site = std::move(child);
  rule.operation = "pull-from:" + feed;
  rule.kind = fault::FaultKind::kError;
  rule.error = ErrorCode::kUnavailable;
  rule.message = "feed link cut";
  rule.from = static_cast<TimeNs>(from_s * kSecond);
  rule.until = static_cast<TimeNs>(until_s * kSecond);
  return rule;
}

constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

// Records the first tick at or after the last fault window closes at which
// the replication tree has converged. The caller has just quiesced every
// serve-ring site, so every replica's cache then reflects its whole log.
void NoteFreshness(const replication::ReplicationTopology& topology,
                   TimeNs elapsed, TimeNs recovery_end, TimeNs& finished_at) {
  if (finished_at == kNever && elapsed >= recovery_end &&
      topology.Converged()) {
    finished_at = elapsed;
  }
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// The full-stack scenario: master db + replication tree + two replica
// serving sites + the four-complex Olympic fabric, driven tick-by-tick
// under SimClock while a FaultPlan fires.
// ---------------------------------------------------------------------------

struct ScenarioConfig {
  fault::FaultPlan plan;
  uint64_t workload_seed = 0x6368616f73ULL;  // "chaos"
  int duration_s = 120;      // drive-loop length (sim seconds)
  int requests_per_tick = 8;
};

struct ScenarioRun {
  std::string transcript;     // the byte-identical replay artifact
  double availability = 0.0;
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t faults_injected = 0;
  bool converged = false;
  size_t cache_objects_verified = 0;
  // Sim time of the first tick at or after recovery_end at which every
  // replica held its feed's full log with every serve-ring site quiesced;
  // kNever if that never happened.
  TimeNs finished_at = kNever;
  TimeNs recovery_end = 0;    // latest finite rule `until` in the plan
};

ScenarioRun RunScenario(const ScenarioConfig& config) {
  ScenarioRun run;
  char line[512];

  SimClock clock;
  metrics::MetricRegistry registry;  // private registry: runs never alias
  fault::FaultInjector faults(config.plan, &clock);
  for (const fault::FaultRule& rule : config.plan.rules) {
    if (rule.until != std::numeric_limits<TimeNs>::max()) {
      run.recovery_end = std::max(run.recovery_end, rule.until);
    }
  }

  // Small site so prefetch + per-tick quiesce stay cheap; the topology and
  // fault surface are what this drill is about, not page volume.
  pagegen::OlympicConfig content;
  content.num_sports = 2;
  content.events_per_sport = 2;
  content.languages = {"en"};

  // Master database in Nagano, populated directly by the scoring feed.
  db::DatabaseOptions master_options;
  master_options.clock = &clock;
  master_options.metrics.registry = &registry;
  master_options.metrics.instance = "master";
  auto master = std::make_unique<db::Database>(std::move(master_options));
  if (!pagegen::OlympicSite::Build(content, master.get()).ok()) {
    ADD_FAILURE() << "OlympicSite::Build failed";
    return run;
  }

  replication::ReplicationOptions topo_options;
  topo_options.clock = &clock;
  topo_options.faults = &faults;
  topo_options.metrics.registry = &registry;
  topo_options.metrics.instance = "repl";
  replication::ReplicationTopology topology(std::move(topo_options));
  EXPECT_TRUE(topology.AddNode("Nagano", master.get()).ok());

  // Replica serving sites for the two first-tier complexes. Each wraps its
  // own database fed by the replication tree; the trigger renders on its
  // one tail thread, so cache state is a pure function of the committed
  // log (determinism).
  std::map<std::string, std::unique_ptr<core::ServingSite>> sites;
  for (const char* name : {"Tokyo", "Schaumburg"}) {
    db::DatabaseOptions replica_options;
    replica_options.clock = &clock;
    replica_options.metrics.registry = &registry;
    replica_options.metrics.instance = std::string(name) + "-db";
    auto replica = std::make_unique<db::Database>(std::move(replica_options));
    if (!pagegen::OlympicSite::CreateSchema(replica.get()).ok()) {
      ADD_FAILURE() << "CreateSchema failed for " << name;
      return run;
    }
    db::Database* raw = replica.get();

    core::SiteOptions site_options;
    site_options.olympic = content;
    site_options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
    site_options.clock = &clock;
    site_options.faults = &faults;
    site_options.retain_stale = true;
    site_options.metrics.registry = &registry;
    site_options.metrics.instance = name;
    auto site_or = core::ServingSite::CreateAround(std::move(site_options),
                                                   std::move(replica));
    if (!site_or.ok()) {
      ADD_FAILURE() << "CreateAround failed for " << name << ": "
                    << site_or.status().message();
      return run;
    }
    sites[name] = std::move(site_or.value());
    EXPECT_TRUE(topology.AddNode(name, raw).ok());
  }
  EXPECT_TRUE(topology.SetFeed("Tokyo", "Nagano", FromMillis(40)).ok());
  EXPECT_TRUE(topology.SetFeed("Schaumburg", "Nagano", FromMillis(130)).ok());
  // The paper's recovery path: Tokyo can feed Schaumburg when the
  // transpacific link to the master dies.
  EXPECT_TRUE(topology.SetFailoverFeed("Schaumburg", "Tokyo").ok());

  // Initial catch-up and warm caches, pre-fault.
  clock.Advance(kSecond);
  topology.PumpUntilQuiet();
  for (auto& [_, site] : sites) {
    auto prefetched = site->PrefetchAll();
    EXPECT_TRUE(prefetched.ok());
    site->StartTrigger();
  }

  // The four-complex fabric; the FaultPlan's kWindow rules drive Fail*/
  // Recover* transitions from inside Route().
  cluster::RegionCosts costs = cluster::RegionCosts::OlympicDefault();
  const size_t num_regions = costs.num_regions();
  cluster::FabricOptions fabric_options =
      cluster::FabricOptions::Olympic(std::move(costs), &clock);
  fabric_options.faults = &faults;
  fabric_options.metrics.registry = &registry;
  fabric_options.metrics.instance = "fabric";
  cluster::ServingFabric fabric(std::move(fabric_options));

  // Deterministic scoring feed: the whole day's schedule compressed into
  // the drill window so commits keep flowing through the outage.
  workload::FeedOptions feed_options;
  feed_options.results_per_event = 6;
  feed_options.news_per_day = 2;
  feed_options.photos_per_event = 0;
  feed_options.first_event_offset = 0;
  feed_options.event_window = 90 * kSecond;
  workload::ResultFeed feed(master.get(), feed_options, 98);
  std::vector<workload::FeedUpdate> schedule = feed.BuildDaySchedule(1);

  workload::PageSampler sampler(content, *master);
  sampler.SetCurrentDay(1);
  Rng rng(config.workload_seed);

  std::vector<core::ServingSite*> serve_ring = {sites["Tokyo"].get(),
                                                sites["Schaumburg"].get()};
  const cluster::LinkClass link = cluster::Lan10M();
  const TimeNs start = clock.Now();
  size_t next_update = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  size_t ring = 0;

  std::snprintf(line, sizeof line,
                "chaos drill: seed=%llu workload=%llu duration=%ds\n",
                static_cast<unsigned long long>(config.plan.seed),
                static_cast<unsigned long long>(config.workload_seed),
                config.duration_s);
  run.transcript += line;

  for (int t = 1; t <= config.duration_s; ++t) {
    clock.Advance(kSecond);
    const TimeNs elapsed = clock.Now() - start;

    // Commits due this tick reach the master; replicas pull what has
    // arrived given their link lag (plus whatever the plan injects).
    while (next_update < schedule.size() &&
           schedule[next_update].at <= elapsed) {
      EXPECT_TRUE(feed.Apply(schedule[next_update]).ok());
      ++next_update;
    }
    topology.Pump();
    // Drain each site's trigger queue so the serve below reads a settled
    // cache — keeps page bytes (and hence modeled CPU cost) a pure
    // function of the replicated log.
    for (core::ServingSite* site : serve_ring) site->Quiesce();
    NoteFreshness(topology, elapsed, run.recovery_end, run.finished_at);

    for (int r = 0; r < config.requests_per_tick; ++r) {
      const std::string page = sampler.Sample(rng);
      core::ServingSite* site = serve_ring[ring++ % serve_ring.size()];
      const server::ServeOutcome outcome = site->Serve(page);
      const size_t bytes = outcome.bytes > 0 ? outcome.bytes : 1024;
      const auto routed = fabric.Route((t + r) % num_regions,
                                       outcome.cpu_cost, bytes, link);
      if (routed.served) {
        ++served;
      } else {
        ++failed;
      }
    }

    if (t % 10 == 0) {
      const auto schaumburg = topology.StatusOf("Schaumburg");
      std::snprintf(
          line, sizeof line,
          "t=%3ds served=%llu failed=%llu master_seq=%llu tokyo_seq=%llu "
          "schaumburg_seq=%llu schaumburg_feed=%s failovers=%llu "
          "stalls=%llu\n",
          t, static_cast<unsigned long long>(served),
          static_cast<unsigned long long>(failed),
          static_cast<unsigned long long>(master->LastSeqno()),
          static_cast<unsigned long long>(
              sites["Tokyo"]->db().LastSeqno()),
          static_cast<unsigned long long>(
              sites["Schaumburg"]->db().LastSeqno()),
          schaumburg.ok() ? schaumburg.value().feed.c_str() : "?",
          static_cast<unsigned long long>(topology.failovers()),
          static_cast<unsigned long long>(topology.stalls()));
      run.transcript += line;
    }
  }

  // Faults are over (the drive loop outlives every finite window); settle
  // the tree and verify the caches.
  topology.PumpUntilQuiet();
  for (core::ServingSite* site : serve_ring) site->Quiesce();
  run.converged = topology.Converged();
  NoteFreshness(topology, clock.Now() - start, run.recovery_end,
                run.finished_at);
  for (core::ServingSite* site : serve_ring) {
    auto verified = site->VerifyCacheConsistency();
    EXPECT_TRUE(verified.ok()) << verified.status().message();
    if (verified.ok()) run.cache_objects_verified += verified.value();
  }

  run.requests = served + failed;
  run.served = served;
  run.availability =
      run.requests == 0
          ? 0.0
          : static_cast<double>(served) / static_cast<double>(run.requests);
  run.faults_injected = faults.injected_total();

  std::snprintf(line, sizeof line,
                "availability=%.4f requests=%llu converged=%s "
                "fresh_at=%llds cache_objects_verified=%zu "
                "faults_injected=%llu\n",
                run.availability,
                static_cast<unsigned long long>(run.requests),
                run.converged ? "yes" : "no",
                run.finished_at == kNever
                    ? -1LL
                    : static_cast<long long>(run.finished_at / kSecond),
                run.cache_objects_verified,
                static_cast<unsigned long long>(run.faults_injected));
  run.transcript += line;

  // Content fingerprints: cached bytes of three representative pages per
  // site, post-convergence. Catches any divergence the counters miss.
  for (core::ServingSite* site : serve_ring) {
    for (const std::string& page :
         {pagegen::OlympicSite::DayHomePage(1),
          pagegen::OlympicSite::EventPage(1), pagegen::OlympicSite::MedalsPage()}) {
      const server::ServeOutcome outcome = site->Serve(page, true);
      std::snprintf(line, sizeof line, "page %s bytes=%zu fnv=%016llx\n",
                    page.c_str(), outcome.bytes,
                    static_cast<unsigned long long>(Fnv1a(outcome.body)));
      run.transcript += line;
    }
  }

  run.transcript += "injected-fault timeline:\n";
  run.transcript += faults.TimelineString();
  return run;
}

// The scripted headline schedule: Tokyo complex dies at t=30s, Schaumburg
// loses a dispatcher at t=40s, and the Nagano->Schaumburg feed link is cut
// at t=35s (forcing the auto re-parent onto Tokyo). Everything recovers by
// t=70s.
fault::FaultPlan ScriptedKillPlan() {
  fault::FaultPlan plan;
  plan.seed = 1998;
  plan.rules.push_back(WindowRule("Tokyo", "complex", 30, 60));
  plan.rules.push_back(WindowRule("Schaumburg", "dispatcher:0", 40, 70));
  plan.rules.push_back(LinkCutRule("Schaumburg", "Nagano", 35, 65));
  return plan;
}

// ---------------------------------------------------------------------------
// Headline scripted scenario
// ---------------------------------------------------------------------------

TEST(ChaosScriptedTest, KillScheduleKeepsServingAndConverges) {
  ScenarioConfig config;
  config.plan = ScriptedKillPlan();
  const ScenarioRun run = RunScenario(config);

  // §4.2 elegant degradation: a dead complex plus a dead dispatcher must
  // not dent availability — three complexes and the secondary dispatchers
  // absorb the traffic.
  EXPECT_GE(run.requests, 900u);
  EXPECT_GE(run.availability, 0.99) << run.transcript;

  // §3 freshness: after the last fault lifts at t=70s, every replica must
  // hold its feed's full log, with its cache quiesced on it, within the
  // paper's 60 s bound; VerifyCacheConsistency at the end of the run checks
  // the cached bytes.
  EXPECT_TRUE(run.converged) << run.transcript;
  EXPECT_GT(run.cache_objects_verified, 0u);
  EXPECT_LE(run.finished_at, run.recovery_end + 60 * kSecond);

  // The plan actually fired, and the timeline shows the scripted kills.
  EXPECT_GT(run.faults_injected, 0u);
  EXPECT_NE(run.transcript.find("fabric/Tokyo/complex"), std::string::npos);
  EXPECT_NE(run.transcript.find("fabric/Schaumburg/dispatcher:0"),
            std::string::npos);
  EXPECT_NE(run.transcript.find("replication/Schaumburg"), std::string::npos);
  // The link cut forced the Tokyo re-parent.
  EXPECT_NE(run.transcript.find("schaumburg_feed=Tokyo"), std::string::npos);
}

TEST(ChaosScriptedTest, SameSeedReplaysByteIdentically) {
  ScenarioConfig config;
  config.plan = ScriptedKillPlan();
  const ScenarioRun first = RunScenario(config);
  const ScenarioRun second = RunScenario(config);
  EXPECT_EQ(first.transcript, second.transcript);
  EXPECT_EQ(first.served, second.served);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
}

// The freshness check is a real bound, not the end of the drive loop: a
// replica whose every pull fails from the start of the drill to its end
// never holds the day's commits, so the bound measured from the last finite
// fault window (t=30s) is missed.
TEST(ChaosScriptedTest, ReplicaStalledPastBoundMissesFreshness) {
  ScenarioConfig config;
  config.plan.seed = 1998;
  config.plan.rules.push_back(WindowRule("Tokyo", "complex", 20, 30));
  fault::FaultRule stall = LinkCutRule("Schaumburg", "Nagano", 0, 0);
  stall.operation = "pull";  // every feed, the Tokyo failover included
  stall.until = std::numeric_limits<TimeNs>::max();
  config.plan.rules.push_back(stall);
  const ScenarioRun run = RunScenario(config);

  EXPECT_EQ(run.recovery_end, 30 * kSecond);
  EXPECT_FALSE(run.converged) << run.transcript;
  EXPECT_GT(run.finished_at, run.recovery_end + 60 * kSecond)
      << run.transcript;
}

// ---------------------------------------------------------------------------
// Randomized scenario (NAGANO_CHAOS_SEED)
// ---------------------------------------------------------------------------

// Draws a kill schedule that is adversarial but survivable: exactly one
// whole complex dies, a dispatcher dies elsewhere, two random nodes die
// anywhere, and the master's Schaumburg feed link is cut. All windows close
// by t=80s so the 60 s freshness bound is checkable inside the drill.
fault::FaultPlan RandomKillPlan(uint64_t seed) {
  static const char* kComplexes[] = {"Tokyo", "Schaumburg", "Columbus",
                                     "Bethesda"};
  Rng rng(seed);
  fault::FaultPlan plan;
  plan.seed = seed;

  const size_t victim = rng.NextBelow(4);
  const double complex_from = 20.0 + static_cast<double>(rng.NextBelow(15));
  const double complex_len = 10.0 + static_cast<double>(rng.NextBelow(20));
  plan.rules.push_back(WindowRule(kComplexes[victim], "complex", complex_from,
                                  complex_from + complex_len));

  const size_t other = (victim + 1 + rng.NextBelow(3)) % 4;
  const double disp_from = 20.0 + static_cast<double>(rng.NextBelow(30));
  const double disp_len = 10.0 + static_cast<double>(rng.NextBelow(25));
  char op[32];
  std::snprintf(op, sizeof op, "dispatcher:%d",
                static_cast<int>(rng.NextBelow(4)));
  plan.rules.push_back(
      WindowRule(kComplexes[other], op, disp_from, disp_from + disp_len));

  for (int i = 0; i < 2; ++i) {
    const size_t cx = rng.NextBelow(4);
    std::snprintf(op, sizeof op, "node:%d.%d",
                  static_cast<int>(rng.NextBelow(3)),
                  static_cast<int>(rng.NextBelow(8)));
    const double from = 15.0 + static_cast<double>(rng.NextBelow(40));
    const double len = 5.0 + static_cast<double>(rng.NextBelow(20));
    plan.rules.push_back(WindowRule(kComplexes[cx], op, from, from + len));
  }

  const double cut_from = 25.0 + static_cast<double>(rng.NextBelow(20));
  const double cut_len = 10.0 + static_cast<double>(rng.NextBelow(15));
  plan.rules.push_back(
      LinkCutRule("Schaumburg", "Nagano", cut_from, cut_from + cut_len));
  return plan;
}

TEST(ChaosRandomizedTest, RandomKillScheduleSurvives) {
  uint64_t seed = 19980207ULL;  // opening day in Nagano
  if (const char* env = std::getenv("NAGANO_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Echoed so a CI failure is reproducible with NAGANO_CHAOS_SEED=<seed>.
  std::printf("chaos: randomized scenario seed=%llu "
              "(rerun with NAGANO_CHAOS_SEED=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  ::testing::Test::RecordProperty("chaos_seed", std::to_string(seed));

  ScenarioConfig config;
  config.plan = RandomKillPlan(seed);
  config.workload_seed = seed ^ 0x6368616f73ULL;
  const ScenarioRun run = RunScenario(config);

  EXPECT_GE(run.availability, 0.99) << run.transcript;
  EXPECT_TRUE(run.converged) << run.transcript;
  EXPECT_GT(run.cache_objects_verified, 0u);
  EXPECT_LE(run.finished_at, run.recovery_end + 60 * kSecond);
  EXPECT_GT(run.faults_injected, 0u);

  // Determinism holds for every seed, not just the scripted one.
  const ScenarioRun replay = RunScenario(config);
  EXPECT_EQ(run.transcript, replay.transcript);
}

// ---------------------------------------------------------------------------
// Flash-crowd drill (ISSUE 6): a medal-decided breaking-news spike slams the
// medals page at 50x baseline while the scoring feed keeps committing
// (every commit an invalidation under the spike) — and mid-spike the
// Nagano->Schaumburg feed link is cut, forcing the re-parent onto Tokyo.
// The SLOs: availability >= 99% through the whole window, bounded
// staleness (no degraded serve older than the paper's 60 s), caches
// byte-fresh within 60 s of the last fault lifting, and the same seed
// replaying byte-identically.
// ---------------------------------------------------------------------------

struct FlashCrowdRun {
  std::string transcript;
  double availability = 0.0;
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t hot_requests = 0;
  uint64_t faults_injected = 0;
  TimeNs max_stale_age = 0;  // oldest degraded-stale body served
  bool converged = false;
  size_t cache_objects_verified = 0;
  TimeNs finished_at = kNever;  // as ScenarioRun::finished_at
  TimeNs recovery_end = 0;
};

FlashCrowdRun RunFlashCrowdDrill(uint64_t seed) {
  constexpr int kDurationS = 120;
  FlashCrowdRun run;
  char line[512];

  SimClock clock;
  metrics::MetricRegistry registry;
  fault::FaultPlan plan;
  plan.seed = seed;
  // The transpacific feed link dies right as the crowd peaks.
  plan.rules.push_back(LinkCutRule("Schaumburg", "Nagano", 35, 65));
  fault::FaultInjector faults(plan, &clock);
  for (const fault::FaultRule& rule : plan.rules) {
    if (rule.until != std::numeric_limits<TimeNs>::max()) {
      run.recovery_end = std::max(run.recovery_end, rule.until);
    }
  }

  pagegen::OlympicConfig content;
  content.num_sports = 2;
  content.events_per_sport = 2;
  content.languages = {"en"};

  db::DatabaseOptions master_options;
  master_options.clock = &clock;
  master_options.metrics.registry = &registry;
  master_options.metrics.instance = "master";
  auto master = std::make_unique<db::Database>(std::move(master_options));
  if (!pagegen::OlympicSite::Build(content, master.get()).ok()) {
    ADD_FAILURE() << "OlympicSite::Build failed";
    return run;
  }

  replication::ReplicationOptions topo_options;
  topo_options.clock = &clock;
  topo_options.faults = &faults;
  topo_options.metrics.registry = &registry;
  topo_options.metrics.instance = "repl";
  replication::ReplicationTopology topology(std::move(topo_options));
  EXPECT_TRUE(topology.AddNode("Nagano", master.get()).ok());

  std::map<std::string, std::unique_ptr<core::ServingSite>> sites;
  for (const char* name : {"Tokyo", "Schaumburg"}) {
    db::DatabaseOptions replica_options;
    replica_options.clock = &clock;
    replica_options.metrics.registry = &registry;
    replica_options.metrics.instance = std::string(name) + "-db";
    auto replica = std::make_unique<db::Database>(std::move(replica_options));
    if (!pagegen::OlympicSite::CreateSchema(replica.get()).ok()) {
      ADD_FAILURE() << "CreateSchema failed for " << name;
      return run;
    }
    db::Database* raw = replica.get();
    core::SiteOptions site_options;
    site_options.olympic = content;
    site_options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
    site_options.clock = &clock;
    site_options.faults = &faults;
    site_options.retain_stale = true;
    site_options.metrics.registry = &registry;
    site_options.metrics.instance = name;
    auto site_or = core::ServingSite::CreateAround(std::move(site_options),
                                                   std::move(replica));
    if (!site_or.ok()) {
      ADD_FAILURE() << "CreateAround failed for " << name << ": "
                    << site_or.status().message();
      return run;
    }
    sites[name] = std::move(site_or.value());
    EXPECT_TRUE(topology.AddNode(name, raw).ok());
  }
  EXPECT_TRUE(topology.SetFeed("Tokyo", "Nagano", FromMillis(40)).ok());
  EXPECT_TRUE(topology.SetFeed("Schaumburg", "Nagano", FromMillis(130)).ok());
  EXPECT_TRUE(topology.SetFailoverFeed("Schaumburg", "Tokyo").ok());

  clock.Advance(kSecond);
  topology.PumpUntilQuiet();
  for (auto& [_, site] : sites) {
    auto prefetched = site->PrefetchAll();
    EXPECT_TRUE(prefetched.ok());
    site->StartTrigger();
  }

  // The scoring feed keeps committing through the spike — under the flash
  // crowd every commit is an invalidation storm on the hot pages.
  workload::FeedOptions feed_options;
  feed_options.results_per_event = 6;
  feed_options.news_per_day = 2;
  feed_options.photos_per_event = 0;
  feed_options.first_event_offset = 0;
  feed_options.event_window = 90 * kSecond;
  workload::ResultFeed feed(master.get(), feed_options, 98);
  std::vector<workload::FeedUpdate> schedule = feed.BuildDaySchedule(1);

  workload::PageSampler sampler(content, *master);
  sampler.SetCurrentDay(1);

  // The adversarial arrival stream: breaking-news shape, the medal-decided
  // page as the hot key, background viewers riding the normal Zipf model.
  workload::ScenarioOptions scenario_options;
  scenario_options.duration = kDurationS * kSecond;
  scenario_options.baseline_rps = 2.0;
  scenario_options.spike_multiplier = 50.0;
  scenario_options.spike_start = 30 * kSecond;
  scenario_options.spike_ramp = 5 * kSecond;
  scenario_options.spike_duration = 30 * kSecond;
  scenario_options.hot_page = pagegen::OlympicSite::MedalsPage();
  workload::ScenarioGenerator generator(&sampler, scenario_options, seed);
  const std::vector<workload::ScenarioRequest> arrivals =
      generator.Build(workload::ScenarioKind::kBreakingNews);

  std::vector<core::ServingSite*> serve_ring = {sites["Tokyo"].get(),
                                                sites["Schaumburg"].get()};
  const TimeNs start = clock.Now();
  size_t next_update = 0;
  size_t next_arrival = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  size_t ring = 0;

  std::snprintf(line, sizeof line,
                "flash-crowd drill: seed=%llu arrivals=%zu duration=%ds\n",
                static_cast<unsigned long long>(seed), arrivals.size(),
                kDurationS);
  run.transcript += line;

  for (int t = 1; t <= kDurationS; ++t) {
    clock.Advance(kSecond);
    const TimeNs elapsed = clock.Now() - start;

    while (next_update < schedule.size() &&
           schedule[next_update].at <= elapsed) {
      EXPECT_TRUE(feed.Apply(schedule[next_update]).ok());
      ++next_update;
    }
    topology.Pump();
    for (core::ServingSite* site : serve_ring) site->Quiesce();
    NoteFreshness(topology, elapsed, run.recovery_end, run.finished_at);

    // Serve everything the scenario scheduled for this tick.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].at < elapsed) {
      const workload::ScenarioRequest& req = arrivals[next_arrival++];
      core::ServingSite* site = serve_ring[ring++ % serve_ring.size()];
      const server::ServeOutcome outcome = site->Serve(req.page);
      if (req.page == scenario_options.hot_page) ++run.hot_requests;
      if (outcome.cls == server::ServeClass::kError) {
        ++failed;
      } else {
        ++served;
      }
      if (outcome.cls == server::ServeClass::kDegradedStale) {
        run.max_stale_age = std::max(run.max_stale_age, outcome.stale_age);
      }
    }

    if (t % 10 == 0) {
      std::snprintf(
          line, sizeof line,
          "t=%3ds served=%llu failed=%llu hot=%llu master_seq=%llu "
          "tokyo_seq=%llu schaumburg_seq=%llu failovers=%llu\n",
          t, static_cast<unsigned long long>(served),
          static_cast<unsigned long long>(failed),
          static_cast<unsigned long long>(run.hot_requests),
          static_cast<unsigned long long>(master->LastSeqno()),
          static_cast<unsigned long long>(sites["Tokyo"]->db().LastSeqno()),
          static_cast<unsigned long long>(
              sites["Schaumburg"]->db().LastSeqno()),
          static_cast<unsigned long long>(topology.failovers()));
      run.transcript += line;
    }
  }

  topology.PumpUntilQuiet();
  for (core::ServingSite* site : serve_ring) site->Quiesce();
  run.converged = topology.Converged();
  NoteFreshness(topology, clock.Now() - start, run.recovery_end,
                run.finished_at);
  for (core::ServingSite* site : serve_ring) {
    auto verified = site->VerifyCacheConsistency();
    EXPECT_TRUE(verified.ok()) << verified.status().message();
    if (verified.ok()) run.cache_objects_verified += verified.value();
  }

  run.requests = served + failed;
  run.served = served;
  run.availability =
      run.requests == 0
          ? 0.0
          : static_cast<double>(served) / static_cast<double>(run.requests);
  run.faults_injected = faults.injected_total();

  std::snprintf(line, sizeof line,
                "availability=%.4f requests=%llu hot=%llu max_stale=%.3fs "
                "converged=%s verified=%zu faults=%llu\n",
                run.availability,
                static_cast<unsigned long long>(run.requests),
                static_cast<unsigned long long>(run.hot_requests),
                static_cast<double>(run.max_stale_age) / kSecond,
                run.converged ? "yes" : "no", run.cache_objects_verified,
                static_cast<unsigned long long>(run.faults_injected));
  run.transcript += line;

  // The hot page's final bytes per site — the freshness identity check.
  for (core::ServingSite* site : serve_ring) {
    const server::ServeOutcome outcome =
        site->Serve(scenario_options.hot_page, true);
    std::snprintf(line, sizeof line, "hot-page bytes=%zu fnv=%016llx\n",
                  outcome.bytes,
                  static_cast<unsigned long long>(Fnv1a(outcome.body)));
    run.transcript += line;
  }
  run.transcript += "injected-fault timeline:\n";
  run.transcript += faults.TimelineString();
  return run;
}

TEST(FlashCrowdDrillTest, BreakingNewsSpikeSurvivesFeedCut) {
  const FlashCrowdRun run = RunFlashCrowdDrill(0x6d6564616cULL);  // "medal"

  // The spike really happened: the hot page dominates the request stream.
  EXPECT_GE(run.requests, 1000u);
  EXPECT_GT(run.hot_requests, run.requests / 2) << run.transcript;

  // Availability SLO: >= 99% served right through spike + link cut.
  EXPECT_GE(run.availability, 0.99) << run.transcript;

  // Bounded staleness: nothing served was older than the paper's 60 s
  // freshness bound, and the caches are byte-fresh within 60 s of the last
  // fault lifting.
  EXPECT_LE(run.max_stale_age, 60 * kSecond) << run.transcript;
  EXPECT_TRUE(run.converged) << run.transcript;
  EXPECT_GT(run.cache_objects_verified, 0u);
  EXPECT_LE(run.finished_at, run.recovery_end + 60 * kSecond);

  // The scripted link cut actually fired.
  EXPECT_GT(run.faults_injected, 0u);
  EXPECT_NE(run.transcript.find("replication/Schaumburg"), std::string::npos)
      << run.transcript;
}

TEST(FlashCrowdDrillTest, SameSeedReplaysByteIdentically) {
  const FlashCrowdRun first = RunFlashCrowdDrill(0x73706b31ULL);
  const FlashCrowdRun second = RunFlashCrowdDrill(0x73706b31ULL);
  EXPECT_EQ(first.transcript, second.transcript);
  EXPECT_EQ(first.served, second.served);
  EXPECT_EQ(first.hot_requests, second.hot_requests);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
}

// ---------------------------------------------------------------------------
// Degraded serving: last-known-good pages, bounded retries
// ---------------------------------------------------------------------------

class DegradedServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::SiteOptions options;
    options.olympic.num_sports = 1;
    options.olympic.events_per_sport = 1;
    options.olympic.languages = {"en"};
    options.clock = &clock_;
    options.retain_stale = true;
    auto site_or = core::ServingSite::Create(std::move(options));
    ASSERT_TRUE(site_or.ok()) << site_or.status().message();
    site_ = std::move(site_or.value());

    // A page whose generator fails on demand — the renderer-side stand-in
    // for a database/backend outage during regeneration.
    site_->renderer().RegisterExact(
        "/chaos/flaky",
        [this](const pagegen::RenderRequest&) -> Result<std::string> {
          ++generator_calls_;
          if (fail_.load()) {
            return transient_.load()
                       ? UnavailableError("injected backend outage")
                       : InternalError("injected permanent failure");
          }
          return std::string("flaky page body v1");
        });
  }

  server::DynamicPageServer MakeServer(server::DynamicPageServer::Options o) {
    o.clock = &clock_;
    return server::DynamicPageServer(&site_->cache(), &site_->renderer(),
                                     std::move(o));
  }

  SimClock clock_;
  std::unique_ptr<core::ServingSite> site_;
  std::atomic<bool> fail_{false};
  std::atomic<bool> transient_{true};
  std::atomic<int> generator_calls_{0};
};

TEST_F(DegradedServingTest, StaleLastKnownGoodServedWhenGenerationFails) {
  server::DynamicPageServer server = MakeServer({});

  // Prime: generation succeeds and the body is cached.
  const auto primed = server.Serve("/chaos/flaky", true);
  EXPECT_EQ(primed.cls, server::ServeClass::kCacheMissGenerated);
  EXPECT_EQ(primed.body, "flaky page body v1");

  // Invalidate (retain_stale keeps the copy reachable), then break the
  // generator. The serve path must retry, give up, and fall back.
  clock_.Advance(5 * kSecond);
  EXPECT_TRUE(site_->cache().Invalidate("/chaos/flaky"));
  fail_ = true;
  generator_calls_ = 0;

  const auto degraded = server.Serve("/chaos/flaky", true);
  EXPECT_EQ(degraded.cls, server::ServeClass::kDegradedStale);
  EXPECT_EQ(degraded.body, "flaky page body v1");
  constexpr uint32_t kAttempts = server::DynamicPageServer::kGenerateAttempts;
  EXPECT_EQ(degraded.retries, kAttempts - 1);
  EXPECT_EQ(generator_calls_, static_cast<int>(kAttempts));  // every attempt
  EXPECT_EQ(degraded.stale_age, 5 * kSecond);  // age of the copy served
  EXPECT_EQ(degraded.error.code(), ErrorCode::kUnavailable);

  const auto stats = server.stats();
  EXPECT_EQ(stats.stale_serves, 1u);
  EXPECT_EQ(stats.retries, kAttempts - 1);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(DegradedServingTest, NonTransientFailureSkipsRetrySchedule) {
  server::DynamicPageServer server = MakeServer({});

  (void)server.Serve("/chaos/flaky", true);  // prime
  EXPECT_TRUE(site_->cache().Invalidate("/chaos/flaky"));
  fail_ = true;
  transient_ = false;  // kInternal: retrying cannot help
  generator_calls_ = 0;

  const auto degraded = server.Serve("/chaos/flaky", true);
  EXPECT_EQ(degraded.cls, server::ServeClass::kDegradedStale);
  EXPECT_EQ(degraded.retries, 0u);
  EXPECT_EQ(generator_calls_, 1);
  EXPECT_EQ(degraded.error.code(), ErrorCode::kInternal);
}

TEST_F(DegradedServingTest, ErrorWhenNoLastKnownGoodExists) {
  server::DynamicPageServer server = MakeServer({});

  fail_ = true;  // never successfully generated, nothing cached
  const auto outcome = server.Serve("/chaos/flaky", true);
  EXPECT_EQ(outcome.cls, server::ServeClass::kError);
  EXPECT_EQ(outcome.error.code(), ErrorCode::kUnavailable);
  // The outage ends the retries at the constant.
  EXPECT_EQ(generator_calls_, static_cast<int>(
                                  server::DynamicPageServer::kGenerateAttempts));
  EXPECT_EQ(server.stats().errors, 1u);
  EXPECT_EQ(server.stats().stale_serves, 0u);
}

// ---------------------------------------------------------------------------
// HTTP front end: X-Cache: STALE surfacing
// ---------------------------------------------------------------------------

TEST_F(DegradedServingTest, HttpFrontEndMarksDegradedResponses) {
  server::FrontEndOptions front_options;
  server::HttpFrontEnd front(&site_->page_server(), std::move(front_options));
  ASSERT_TRUE(front.Start().ok());

  // Prime over real HTTP, then break the generator and invalidate.
  auto primed = http::HttpClient::FetchOnce("127.0.0.1", front.port(),
                                            "/chaos/flaky");
  ASSERT_TRUE(primed.ok()) << primed.status().message();
  EXPECT_EQ(primed.value().status, 200);
  EXPECT_EQ(primed.value().body, "flaky page body v1");

  clock_.Advance(3 * kSecond + FromMillis(500));
  EXPECT_TRUE(site_->cache().Invalidate("/chaos/flaky"));
  fail_ = true;

  auto degraded = http::HttpClient::FetchOnce("127.0.0.1", front.port(),
                                              "/chaos/flaky");
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  // Degraded serving is still a 200: the user gets the page, with headers
  // announcing its provenance and age.
  EXPECT_EQ(degraded.value().status, 200);
  EXPECT_EQ(degraded.value().body, "flaky page body v1");
  auto cache_header = degraded.value().headers.find("X-Cache");
  ASSERT_NE(cache_header, degraded.value().headers.end());
  EXPECT_EQ(cache_header->second, "STALE");
  auto age_header = degraded.value().headers.find("X-Nagano-Stale");
  ASSERT_NE(age_header, degraded.value().headers.end());
  EXPECT_EQ(age_header->second, "3.500");  // seconds, from the site clock

  front.Stop();
}

// ---------------------------------------------------------------------------
// Trigger monitor: lost and duplicated commit wake-ups
// ---------------------------------------------------------------------------

std::unique_ptr<core::ServingSite> MakeFaultedSite(
    const Clock* clock, fault::FaultInjector* faults) {
  core::SiteOptions options;
  options.olympic.num_sports = 1;
  options.olympic.events_per_sport = 2;
  options.olympic.languages = {"en"};
  options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
  options.clock = clock;
  options.faults = faults;
  auto site_or = core::ServingSite::Create(std::move(options));
  EXPECT_TRUE(site_or.ok());
  return site_or.ok() ? std::move(site_or.value()) : nullptr;
}

TEST(ChaosTriggerTest, EveryWakeupDroppedStillQuiescesFresh) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::FaultRule drop;
  drop.subsystem = "trigger";
  drop.operation = "notify";
  drop.kind = fault::FaultKind::kError;
  // No max_fires: every commit wake-up is lost.
  plan.rules.push_back(drop);
  fault::FaultInjector faults(std::move(plan), &clock);

  auto site = MakeFaultedSite(&clock, &faults);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  site->StartTrigger();

  ASSERT_TRUE(site->RecordResult(1, 1, 101, 9.5).ok());
  ASSERT_TRUE(site->RecordResult(1, 2, 102, 9.1).ok());
  site->Quiesce();
  EXPECT_GE(site->trigger_monitor().stats().notifications_dropped, 2u);

  // The changes are in the log, and Quiesce() waits for the tail to read
  // them there: the freshness bound it reports is a true one.
  EXPECT_EQ(site->last_quiesced_seqno(), site->db().LastSeqno());
  EXPECT_EQ(site->trigger_monitor().backlog(), 0u);
  auto verified = site->VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(ChaosTriggerTest, LaterNotificationHealsEarlierDrop) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 8;
  fault::FaultRule drop;
  drop.subsystem = "trigger";
  drop.operation = "notify";
  drop.kind = fault::FaultKind::kError;
  drop.max_fires = 1;
  plan.rules.push_back(drop);
  fault::FaultInjector faults(std::move(plan), &clock);

  auto site = MakeFaultedSite(&clock, &faults);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  site->StartTrigger();

  ASSERT_TRUE(site->RecordResult(1, 1, 101, 9.5).ok());  // dropped
  ASSERT_TRUE(site->RecordResult(1, 2, 102, 9.1).ok());  // reads both
  site->Quiesce();
  auto healed = site->VerifyCacheConsistency();
  EXPECT_TRUE(healed.ok()) << healed.status().message();
  EXPECT_EQ(site->trigger_monitor().stats().notifications_dropped, 1u);
  EXPECT_EQ(site->trigger_monitor().backlog(), 0u);
}

TEST(ChaosTriggerTest, DuplicateNotificationIsIdempotent) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 9;
  fault::FaultRule dup;
  dup.subsystem = "trigger";
  dup.operation = "notify";
  dup.kind = fault::FaultKind::kDuplicate;
  dup.duplicates = 1;
  dup.max_fires = 1;
  plan.rules.push_back(dup);
  fault::FaultInjector faults(std::move(plan), &clock);

  auto site = MakeFaultedSite(&clock, &faults);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  site->StartTrigger();

  ASSERT_TRUE(site->RecordResult(1, 1, 101, 9.5).ok());
  site->Quiesce();
  EXPECT_EQ(site->trigger_monitor().stats().duplicates_injected, 1u);
  // The extra wake-up finds nothing new past the tail's cursor; the cache
  // must end up exactly where a single wake-up would have left it.
  auto verified = site->VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

TEST(ChaosTriggerTest, FailedLogReadRetriesWithoutSkipping) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 10;
  fault::FaultRule rule;
  rule.subsystem = "db";
  rule.operation = "changes";
  rule.kind = fault::FaultKind::kError;
  rule.error = ErrorCode::kUnavailable;
  rule.from = kSecond;  // armed by the clock.Advance below
  rule.max_fires = 2;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan), &clock);

  auto site = MakeFaultedSite(&clock, &faults);
  ASSERT_NE(site, nullptr);
  ASSERT_TRUE(site->PrefetchAll().ok());
  site->StartTrigger();

  clock.Advance(2 * kSecond);  // into the fault window
  ASSERT_TRUE(site->RecordResult(1, 1, 101, 9.5).ok());
  site->Quiesce();
  // The failed reads moved nothing; a later read applied the change.
  EXPECT_EQ(faults.injected_total(), 2u);
  EXPECT_EQ(site->last_quiesced_seqno(), site->db().LastSeqno());
  auto verified = site->VerifyCacheConsistency();
  EXPECT_TRUE(verified.ok()) << verified.status().message();
}

// ---------------------------------------------------------------------------
// Database fault points
// ---------------------------------------------------------------------------

TEST(ChaosDbTest, InjectedCommitErrorFailsCleanly) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::FaultRule rule;
  rule.subsystem = "db";
  rule.operation = "commit";
  rule.kind = fault::FaultKind::kError;
  rule.error = ErrorCode::kUnavailable;
  rule.from = kSecond;  // let schema/content setup commits through first
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan), &clock);

  db::DatabaseOptions options;
  options.clock = &clock;
  options.faults = &faults;
  db::Database db(std::move(options));
  pagegen::OlympicConfig content;
  content.num_sports = 1;
  content.events_per_sport = 1;
  content.languages = {"en"};
  ASSERT_TRUE(pagegen::OlympicSite::Build(content, &db).ok());

  clock.Advance(2 * kSecond);  // into the fault window
  // The injected commit error fails the mutation cleanly: no seqno is
  // consumed, no change-log record is written, and the retry succeeds.
  const uint64_t before = db.LastSeqno();
  const Status failed = pagegen::OlympicSite::RecordResult(&db, 1, 1, 101, 9.5);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsTransient(failed));
  EXPECT_EQ(db.LastSeqno(), before);
  EXPECT_TRUE(pagegen::OlympicSite::RecordResult(&db, 1, 1, 101, 9.5).ok());
  // The retry lands both records of the one commit: the result row plus
  // the event's scheduled -> in_progress status flip.
  EXPECT_EQ(db.LastSeqno(), before + 2);
}

TEST(ChaosDbTest, InjectedChangeLogErrorIsTransient) {
  SimClock clock;
  fault::FaultPlan plan;
  plan.seed = 12;
  fault::FaultRule rule;
  rule.subsystem = "db";
  rule.operation = "changes";
  rule.kind = fault::FaultKind::kError;
  rule.error = ErrorCode::kUnavailable;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan), &clock);

  db::DatabaseOptions options;
  options.clock = &clock;
  options.faults = &faults;
  db::Database db(std::move(options));

  auto first = db.ReadChanges(db::ChangeCursor{}, 16);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(IsTransient(first.status()));
  auto second = db.ReadChanges(db::ChangeCursor{}, 16);
  EXPECT_TRUE(second.ok());
}

// ---------------------------------------------------------------------------
// Real HTTP server: socket faults and the slow-loris sweep
// ---------------------------------------------------------------------------

http::HttpServer::Options HttpOptionsWith(fault::FaultInjector* faults,
                                          TimeNs idle_timeout = 0) {
  http::HttpServer::Options options;
  options.port = 0;
  options.faults = faults;
  options.idle_timeout = idle_timeout;
  return options;
}

TEST(ChaosHttpTest, InjectedAcceptFaultDropsOneConnection) {
  fault::FaultPlan plan;
  plan.seed = 13;
  fault::FaultRule rule;
  rule.subsystem = "http";
  rule.operation = "accept";
  rule.kind = fault::FaultKind::kError;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan));  // wall clock

  http::HttpServer server(
      [](const http::HttpRequest&) { return http::HttpResponse::Ok("hi"); },
      HttpOptionsWith(&faults));
  ASSERT_TRUE(server.Start().ok());

  // The first connection is killed at accept; the client sees a failed
  // round trip, not a hang.
  auto first = http::HttpClient::FetchOnce("127.0.0.1", server.port(), "/");
  EXPECT_FALSE(first.ok());
  // The next connection goes through untouched.
  auto second = http::HttpClient::FetchOnce("127.0.0.1", server.port(), "/");
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().body, "hi");
  EXPECT_GE(faults.injected_total(), 1u);
  server.Stop();
}

TEST(ChaosHttpTest, InjectedReadFaultClosesMidRequest) {
  fault::FaultPlan plan;
  plan.seed = 14;
  fault::FaultRule rule;
  rule.subsystem = "http";
  rule.operation = "read";
  rule.kind = fault::FaultKind::kError;
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan));

  http::HttpServer server(
      [](const http::HttpRequest&) { return http::HttpResponse::Ok("hi"); },
      HttpOptionsWith(&faults));
  ASSERT_TRUE(server.Start().ok());

  auto first = http::HttpClient::FetchOnce("127.0.0.1", server.port(), "/");
  EXPECT_FALSE(first.ok());
  auto second = http::HttpClient::FetchOnce("127.0.0.1", server.port(), "/");
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().status, 200);
  server.Stop();
}

TEST(ChaosHttpTest, SlowLorisConnectionIsReaped) {
  http::HttpServer server(
      [](const http::HttpRequest&) { return http::HttpResponse::Ok("hi"); },
      HttpOptionsWith(nullptr, FromMillis(150)));
  ASSERT_TRUE(server.Start().ok());

  // A client that sends half a request line and then just sits there.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char partial[] = "GET / HTT";
  ASSERT_EQ(::send(fd, partial, sizeof partial - 1, 0),
            static_cast<ssize_t>(sizeof partial - 1));

  // The idle sweep (100 ms cadence) must reap the connection once it has
  // been silent past idle_timeout. Poll rather than sleep a fixed time so
  // the test is fast on idle machines and tolerant on loaded ones.
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reaped = server.stats().idle_closed >= 1;
  }
  EXPECT_TRUE(reaped) << "idle sweep never closed the slow-loris connection";

  // The kernel tells the loris its socket is gone.
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  EXPECT_LE(n, 0);
  ::close(fd);

  // An honest client is unaffected.
  auto ok = http::HttpClient::FetchOnce("127.0.0.1", server.port(), "/");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(ok.value().body, "hi");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Crash-recovery drill: torn WAL tail -> warm restart -> rejoin (ISSUE 4)
// ---------------------------------------------------------------------------

std::string MakeWalTempDir() {
  char tmpl[] = "/tmp/nagano-chaos-wal-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

struct RestartDrillRun {
  std::string transcript;     // replay artifact (never mentions the WAL dir)
  std::string fingerprints;   // final page bytes per site, the identity check
  double availability = 0.0;
  uint64_t requests = 0;
  bool crashed = false;
  bool rejoined = false;
  bool converged = false;
  uint64_t torn_tails = 0;        // observed by the WAL reopen scan
  uint64_t recovered_seqno = 0;   // LastSeqno straight out of Recover()
  uint64_t catch_up_target = 0;   // master seqno the rejoin had to reach
  TimeNs rejoin_latency = 0;      // WAL reopen -> back in the serve ring
  size_t cache_objects_verified = 0;
};

// One drill run over a sharded store (ISSUE 8): every database in the tree
// is partitioned into two shards, and Tokyo write-ahead-logs each shard
// into its own stream under `wal_dir`. With crash=true, a single scripted
// `wal append` fault tears the tail of Tokyo's *shard-0* stream
// mid-ApplyReplicated after t=30s; the drill then kills the site
// (MarkDown + destroy, the stream keeps the torn frame), reopens the
// shard WALs fifteen ticks later, warm-restarts the site from the
// per-shard checkpoints + tails (parallel replay), and heals exactly the
// wounded shard through the per-shard replication cursor — shard 1's
// position is untouched while shard 0 re-pulls its lost records. The site
// re-enters the serve ring once CaughtUp() and Health() agree it is
// ready. With crash=false the same seed runs undisturbed — the control
// whose final page bytes the crashed run must match.
RestartDrillRun RunRestartDrill(bool crash, const std::string& wal_dir,
                                uint64_t workload_seed) {
  constexpr int kDurationS = 90;
  constexpr int kRequestsPerTick = 8;
  constexpr int kCheckpointTick = 20;  // pre-crash: recovery = ckpt + tail
  constexpr int kRestartDelayTicks = 15;
  constexpr size_t kDbShards = 2;

  RestartDrillRun run;
  char line[512];

  SimClock clock;
  metrics::MetricRegistry registry;
  fault::FaultPlan plan;
  plan.seed = 19980213;  // the men's super-G, delayed four times by weather
  if (crash) {
    fault::FaultRule tear;
    tear.subsystem = "wal";
    tear.site = "Tokyo-wal/s0";  // tears exactly one shard's stream
    tear.operation = "append";
    tear.kind = fault::FaultKind::kError;
    tear.error = ErrorCode::kUnavailable;
    tear.message = "power cut mid-append";
    // Open-ended window + max_fires=1: the first replicated append Tokyo
    // attempts after t=30s is the one that tears, whenever the feed
    // schedule happens to produce it.
    tear.from = static_cast<TimeNs>(30 * kSecond);
    tear.max_fires = 1;
    plan.rules.push_back(tear);
  }
  fault::FaultInjector faults(std::move(plan), &clock);

  pagegen::OlympicConfig content;
  content.num_sports = 2;
  content.events_per_sport = 2;
  content.languages = {"en"};

  db::DatabaseOptions master_options;
  master_options.clock = &clock;
  master_options.metrics.registry = &registry;
  master_options.metrics.instance = "master";
  // Replicas mirror the master's per-shard numbering record by record, so
  // every store in the tree shares the shard layout.
  master_options.shards = kDbShards;
  auto master = std::make_unique<db::Database>(std::move(master_options));
  if (!pagegen::OlympicSite::Build(content, master.get()).ok()) {
    ADD_FAILURE() << "OlympicSite::Build failed";
    return run;
  }

  replication::ReplicationOptions topo_options;
  topo_options.clock = &clock;
  topo_options.faults = &faults;
  topo_options.metrics.registry = &registry;
  topo_options.metrics.instance = "repl";
  replication::ReplicationTopology topology(std::move(topo_options));
  EXPECT_TRUE(topology.AddNode("Nagano", master.get()).ok());

  // One WAL stream per shard: <wal_dir>/shard-0, <wal_dir>/shard-1, with
  // fault-injection instances Tokyo-wal/s0 and Tokyo-wal/s1.
  auto open_wals = [&]() -> wal::ShardWalSet {
    wal::WalOptions wal_options;
    wal_options.dir = wal_dir;
    wal_options.clock = &clock;
    wal_options.faults = &faults;
    wal_options.metrics.registry = &registry;
    wal_options.metrics.instance = "Tokyo-wal";
    auto set_or = wal::OpenShardWals(std::move(wal_options), kDbShards);
    EXPECT_TRUE(set_or.ok()) << set_or.status().message();
    return set_or.ok() ? std::move(set_or.value()) : wal::ShardWalSet{};
  };

  auto tokyo_site_options = [&]() {
    core::SiteOptions site_options;
    site_options.olympic = content;
    site_options.trigger.policy = trigger::CachePolicy::kDupUpdateInPlace;
    site_options.clock = &clock;
    site_options.faults = &faults;
    site_options.retain_stale = true;
    site_options.metrics.registry = &registry;
    site_options.metrics.instance = "Tokyo";
    return site_options;
  };

  // Tokyo: the durable replica under test. Its database write-ahead-logs
  // every replicated commit into its owning shard's stream under `wal_dir`.
  wal::ShardWalSet wals = open_wals();
  if (wals.wals.empty()) return run;
  std::map<std::string, std::unique_ptr<core::ServingSite>> sites;
  {
    db::DatabaseOptions replica_options;
    replica_options.clock = &clock;
    replica_options.metrics.registry = &registry;
    replica_options.metrics.instance = "Tokyo-db";
    replica_options.shards = kDbShards;
    replica_options.shard_wals = wals.pointers();
    auto replica = std::make_unique<db::Database>(std::move(replica_options));
    if (!pagegen::OlympicSite::CreateSchema(replica.get()).ok()) {
      ADD_FAILURE() << "CreateSchema failed for Tokyo";
      return run;
    }
    db::Database* raw = replica.get();
    auto site_or = core::ServingSite::CreateAround(tokyo_site_options(),
                                                   std::move(replica));
    if (!site_or.ok()) {
      ADD_FAILURE() << "CreateAround failed for Tokyo: "
                    << site_or.status().message();
      return run;
    }
    sites["Tokyo"] = std::move(site_or.value());
    EXPECT_TRUE(topology.AddNode("Tokyo", raw).ok());
  }

  // Schaumburg: a plain in-memory replica that carries the load alone
  // while Tokyo is down.
  {
    db::DatabaseOptions replica_options;
    replica_options.clock = &clock;
    replica_options.metrics.registry = &registry;
    replica_options.metrics.instance = "Schaumburg-db";
    replica_options.shards = kDbShards;  // same layout, no durability
    auto replica = std::make_unique<db::Database>(std::move(replica_options));
    if (!pagegen::OlympicSite::CreateSchema(replica.get()).ok()) {
      ADD_FAILURE() << "CreateSchema failed for Schaumburg";
      return run;
    }
    db::Database* raw = replica.get();
    core::SiteOptions site_options = tokyo_site_options();
    site_options.metrics.instance = "Schaumburg";
    auto site_or = core::ServingSite::CreateAround(std::move(site_options),
                                                   std::move(replica));
    if (!site_or.ok()) {
      ADD_FAILURE() << "CreateAround failed for Schaumburg: "
                    << site_or.status().message();
      return run;
    }
    sites["Schaumburg"] = std::move(site_or.value());
    EXPECT_TRUE(topology.AddNode("Schaumburg", raw).ok());
  }
  EXPECT_TRUE(topology.SetFeed("Tokyo", "Nagano", FromMillis(40)).ok());
  EXPECT_TRUE(topology.SetFeed("Schaumburg", "Nagano", FromMillis(130)).ok());

  clock.Advance(kSecond);
  topology.PumpUntilQuiet();
  for (auto& [_, site] : sites) {
    auto prefetched = site->PrefetchAll();
    EXPECT_TRUE(prefetched.ok());
    site->StartTrigger();
  }

  workload::FeedOptions feed_options;
  feed_options.results_per_event = 6;
  feed_options.news_per_day = 2;
  feed_options.photos_per_event = 0;
  feed_options.first_event_offset = 0;
  feed_options.event_window = 90 * kSecond;
  workload::ResultFeed feed(master.get(), feed_options, 98);
  std::vector<workload::FeedUpdate> schedule = feed.BuildDaySchedule(1);

  workload::PageSampler sampler(content, *master);
  sampler.SetCurrentDay(1);
  Rng rng(workload_seed);

  const TimeNs start = clock.Now();
  size_t next_update = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  size_t ring = 0;
  int crash_tick = 0;
  TimeNs restart_at = 0;
  bool restarted = false;

  std::snprintf(line, sizeof line,
                "restart drill: crash=%d workload=%llu duration=%ds\n",
                crash ? 1 : 0,
                static_cast<unsigned long long>(workload_seed), kDurationS);
  run.transcript += line;

  for (int t = 1; t <= kDurationS; ++t) {
    clock.Advance(kSecond);
    const TimeNs elapsed = clock.Now() - start;

    while (next_update < schedule.size() &&
           schedule[next_update].at <= elapsed) {
      EXPECT_TRUE(feed.Apply(schedule[next_update]).ok());
      ++next_update;
    }
    topology.Pump();

    // A pre-crash checkpoint, so recovery exercises the image + tail path
    // rather than a cold full-log replay.
    if (t == kCheckpointTick && sites.count("Tokyo") != 0U) {
      const Status ckpt = sites["Tokyo"]->db().Checkpoint();
      EXPECT_TRUE(ckpt.ok()) << ckpt.message();
      std::snprintf(line, sizeof line, "t=%3ds checkpoint seqno=%llu\n", t,
                    static_cast<unsigned long long>(
                        sites["Tokyo"]->db().LastSeqno()));
      run.transcript += line;
    }

    // The kill: the injected append fault left a torn frame on Tokyo's
    // disk and wedged the log — the process is dead. Drop the site (its
    // destructor stops the trigger), close the WAL fds, mark the replica
    // down. Nothing of the in-memory state survives; only the WAL files.
    if (crash && !run.crashed && faults.injected_total() > 0) {
      run.crashed = true;
      crash_tick = t;
      EXPECT_TRUE(topology.MarkDown("Tokyo").ok());
      sites.erase("Tokyo");
      wals.wals.clear();
      std::snprintf(line, sizeof line,
                    "t=%3ds CRASH torn append, Tokyo down (master_seq=%llu)\n",
                    t, static_cast<unsigned long long>(master->LastSeqno()));
      run.transcript += line;
    }

    // The warm restart, fifteen sim-seconds later: reopen the WAL (the
    // scan truncates the torn tail), rebuild the database from checkpoint
    // + tail, and rejoin the replication tree under the old name. The
    // site is alive but not ready: Health() keeps failing until the
    // catch-up target is reached and the cache is repopulated.
    if (run.crashed && !restarted && t == crash_tick + kRestartDelayTicks) {
      restarted = true;
      wals = open_wals();
      if (wals.wals.empty()) return run;
      for (const auto& shard_wal : wals.wals) {
        run.torn_tails += shard_wal->stats().torn_tails;
      }
      core::SiteOptions site_options = tokyo_site_options();
      site_options.db_shards = kDbShards;
      site_options.shard_wals = wals.pointers();
      auto site_or = core::ServingSite::WarmRestart(std::move(site_options));
      if (!site_or.ok()) {
        ADD_FAILURE() << "WarmRestart failed: " << site_or.status().message();
        return run;
      }
      std::unique_ptr<core::ServingSite> site = std::move(site_or.value());
      run.recovered_seqno = site->db().LastSeqno();
      run.catch_up_target = master->LastSeqno();
      site->SetRejoinTarget(run.catch_up_target);
      EXPECT_TRUE(topology.ReattachNode("Tokyo", &site->db()).ok());
      EXPECT_TRUE(topology.MarkUp("Tokyo").ok());
      EXPECT_FALSE(site->Health().ok);  // not ready until caught up
      sites["Tokyo"] = std::move(site);
      restart_at = clock.Now();
      std::snprintf(line, sizeof line,
                    "t=%3ds RESTART recovered_seq=%llu target=%llu "
                    "torn_tails=%llu\n",
                    t, static_cast<unsigned long long>(run.recovered_seqno),
                    static_cast<unsigned long long>(run.catch_up_target),
                    static_cast<unsigned long long>(run.torn_tails));
      run.transcript += line;
      // Fault isolation, shard by shard: the torn stream is flagged
      // kDataLoss; its siblings recover healthy and the per-shard cursors
      // heal only the wounded one.
      const db::RecoveryReport& report =
          sites.count("Tokyo") == 0U ? db::RecoveryReport{}
                                     : sites["Tokyo"]->db().last_recovery();
      for (size_t k = 0; k < report.shards.size(); ++k) {
        std::snprintf(line, sizeof line,
                      "         shard %zu: mark=%llu replayed=%llu ok=%d\n", k,
                      static_cast<unsigned long long>(
                          report.shards[k].shard_seqno),
                      static_cast<unsigned long long>(report.shards[k].replayed),
                      report.shards[k].status.ok() ? 1 : 0);
        run.transcript += line;
      }
    }

    // Rejoin: once replication has pulled the recovered database past the
    // catch-up target, repopulate the cache and return to the serve ring.
    if (restarted && !run.rejoined &&
        sites["Tokyo"]->db().LastSeqno() >= run.catch_up_target) {
      core::ServingSite& tokyo = *sites["Tokyo"];
      auto prefetched = tokyo.PrefetchAll();
      EXPECT_TRUE(prefetched.ok());
      tokyo.StartTrigger();
      EXPECT_TRUE(tokyo.CaughtUp());
      EXPECT_TRUE(tokyo.Health().ok);
      run.rejoined = true;
      run.rejoin_latency = clock.Now() - restart_at;
      std::snprintf(line, sizeof line,
                    "t=%3ds REJOIN tokyo_seq=%llu rejoin_latency=%.1fs\n", t,
                    static_cast<unsigned long long>(tokyo.db().LastSeqno()),
                    static_cast<double>(run.rejoin_latency) / kSecond);
      run.transcript += line;
    }

    // The serve ring is whatever is alive and ready this tick. A site in
    // recovery takes no traffic — that is what Health() gating means.
    std::vector<core::ServingSite*> serve_ring;
    for (const char* name : {"Tokyo", "Schaumburg"}) {
      auto it = sites.find(name);
      if (it != sites.end() && it->second->CaughtUp()) {
        serve_ring.push_back(it->second.get());
      }
    }
    for (core::ServingSite* site : serve_ring) site->Quiesce();
    for (int r = 0; r < kRequestsPerTick; ++r) {
      const std::string page = sampler.Sample(rng);
      core::ServingSite* site = serve_ring[ring++ % serve_ring.size()];
      const server::ServeOutcome outcome = site->Serve(page);
      if (outcome.cls != server::ServeClass::kError) {
        ++served;
      } else {
        ++failed;
      }
    }

    if (t % 10 == 0) {
      std::snprintf(
          line, sizeof line,
          "t=%3ds served=%llu failed=%llu master_seq=%llu sites=%zu\n", t,
          static_cast<unsigned long long>(served),
          static_cast<unsigned long long>(failed),
          static_cast<unsigned long long>(master->LastSeqno()),
          serve_ring.size());
      run.transcript += line;
    }
  }

  topology.PumpUntilQuiet();
  for (auto& [_, site] : sites) site->Quiesce();
  run.converged = topology.Converged();
  for (auto& [name, site] : sites) {
    auto verified = site->VerifyCacheConsistency();
    EXPECT_TRUE(verified.ok()) << name << ": " << verified.status().message();
    if (verified.ok()) run.cache_objects_verified += verified.value();
  }

  run.requests = served + failed;
  run.availability =
      run.requests == 0
          ? 0.0
          : static_cast<double>(served) / static_cast<double>(run.requests);

  // The identity check: the recovered site's served bytes, page by page,
  // against whatever the control run produces for the same seed.
  for (const char* name : {"Tokyo", "Schaumburg"}) {
    auto it = sites.find(name);
    if (it == sites.end()) continue;
    for (const std::string& page :
         {pagegen::OlympicSite::DayHomePage(1),
          pagegen::OlympicSite::EventPage(1),
          pagegen::OlympicSite::EventPage(3),
          pagegen::OlympicSite::MedalsPage()}) {
      const server::ServeOutcome outcome = it->second->Serve(page, true);
      std::snprintf(line, sizeof line, "%s %s bytes=%zu fnv=%016llx\n", name,
                    page.c_str(), outcome.bytes,
                    static_cast<unsigned long long>(Fnv1a(outcome.body)));
      run.fingerprints += line;
    }
  }
  run.transcript += run.fingerprints;
  return run;
}

TEST(ChaosRestartDrillTest, TornTailWarmRestartServesByteIdenticalPages) {
  const std::string crash_dir = MakeWalTempDir();
  const std::string control_dir = MakeWalTempDir();
  const std::string replay_dir = MakeWalTempDir();
  ASSERT_FALSE(crash_dir.empty());
  ASSERT_FALSE(control_dir.empty());
  ASSERT_FALSE(replay_dir.empty());
  const uint64_t seed = 0x6e6167616e6fULL;  // "nagano"

  const RestartDrillRun crashed = RunRestartDrill(true, crash_dir, seed);
  const RestartDrillRun control = RunRestartDrill(false, control_dir, seed);

  // The scripted kill actually happened: a torn frame was written, found
  // and dropped by the reopen scan, and the recovered database came back
  // behind the live master (there was a real delta to pull).
  EXPECT_TRUE(crashed.crashed) << crashed.transcript;
  EXPECT_GE(crashed.torn_tails, 1u) << crashed.transcript;
  EXPECT_GT(crashed.recovered_seqno, 0u);
  EXPECT_LT(crashed.recovered_seqno, crashed.catch_up_target)
      << crashed.transcript;

  // The site rejoined — and fast: well inside the paper's 60 s freshness
  // bound, measured from WAL reopen to back-in-the-serve-ring.
  EXPECT_TRUE(crashed.rejoined) << crashed.transcript;
  EXPECT_LE(crashed.rejoin_latency, 60 * kSecond) << crashed.transcript;

  // Availability held through the crash and the restart: Schaumburg
  // carried the ring alone while Tokyo was away.
  EXPECT_GE(crashed.requests, 700u);
  EXPECT_GE(crashed.availability, 0.99) << crashed.transcript;
  EXPECT_TRUE(crashed.converged) << crashed.transcript;
  EXPECT_GT(crashed.cache_objects_verified, 0u);

  // The control never crashed, and the recovered run's final served bytes
  // are identical to the control's, page for page, site for site.
  EXPECT_FALSE(control.crashed);
  EXPECT_TRUE(control.converged);
  EXPECT_EQ(crashed.fingerprints, control.fingerprints)
      << "crashed:\n" << crashed.transcript
      << "\ncontrol:\n" << control.transcript;

  // Crash, recovery, and rejoin replay byte-identically under the same
  // seed — the torn-tail path is as deterministic as the rest of the plan.
  const RestartDrillRun replay = RunRestartDrill(true, replay_dir, seed);
  EXPECT_EQ(crashed.transcript, replay.transcript);

  std::filesystem::remove_all(crash_dir);
  std::filesystem::remove_all(control_dir);
  std::filesystem::remove_all(replay_dir);
}

}  // namespace
}  // namespace nagano
