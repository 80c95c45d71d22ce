// perfbench — the repository benchmark: the paper's two paths, measured on
// the deployable topology.
//
//   request path: client -> dispatch::Dispatcher -> backend HTTP front end
//                 -> DynamicPageServer -> ObjectCache
//   commit path:  feed update -> db commit -> WAL -> trigger -> DUP ->
//                 render/patch -> cache-visible
//
// One invocation runs one workload for a fixed measuring time and prints a
// report, then one JSON line with the run's outcome and metrics (see
// README.md for the workloads, the metrics and why they are shaped this
// way). run.py builds this program and drives it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/serving_site.h"
#include "dispatch/cluster.h"
#include "harness.h"
#include "http/client.h"
#include "odg/dup.h"
#include "wal/wal.h"
#include "workload/feed.h"

namespace {

using namespace nagano;
using perfbench::NowNs;
using perfbench::Percentile;
using workload::FeedUpdate;

// Reads draw from the day-8 hot set (mid-games: half the programme done).
constexpr int kReadDay = 8;
// Length of the generated page sequence; each reader walks it cyclically
// from its own offset.
constexpr size_t kReadSequence = 1 << 17;
// A reader closes its connection after this many reads and opens a new one,
// so the dispatcher re-pins it. Without re-pinning, whether both readers
// landed on the same backend would be decided once per topology and would
// swing the whole run's throughput.
constexpr uint64_t kReadsPerConnection = 1000;
// read_during_feed's fixed mix (perfbench::MixGate): one feed update per
// this many reads, about 140 updates/s next to the readers on the pinned CPU.
// A fixed mix makes every read window carry the same share of commit work
// whatever the speed of the host or the code. (At a fixed update rate the
// feed's share of the CPU grew when the host slowed down, so a slow phase
// cut the reads twice over; a closed-loop feed would take more CPU from the
// readers the faster the commit path got.)
constexpr uint64_t kReadsPerUpdate = 100;
// Updates the readers may run ahead of the feed, so an update waiting on
// its fsync does not leave the CPU idle.
constexpr uint64_t kMixSlack = 8;
// Traced reads time every kDepthEvery-th page again at each depth.
constexpr uint64_t kDepthEvery = 8;
// Topologies built per run at least, so setup_s is a median.
constexpr int kMinEpisodes = 5;
constexpr int kReaders = 2;
// Gated figures are computed over windows of this length: operations
// (reads, or feed updates) completed per second and the latency p50 of each
// window. Feed updates are not homogeneous (an event completion costs far
// more than a result), but every feed_games run replays the whole schedule
// about twenty times, so each run's windows cover the same mix. Window rates
// and set-up times are over the program's own time: time the hypervisor
// stole from the pinned CPU is taken out (perfbench::OwnTimer).
constexpr int64_t kWindowNs = 250 * kMillisecond;
// The gated rate and latency are the levels sustained in this share of the
// windows: the 10th percentile of the window rates and the 90th of the
// windows' latency p50s. On a shared 4-vCPU VM the same code runs at a steady floor
// with phases of up to 1.5x faster on top (other tenants idle; steal shows
// none of it), lasting seconds to minutes. Medians moved with how much of a
// run such phases covered (IQR 10-27% of the median over 7-8 seeded runs);
// the sustained levels held within 4-8% on the same runs. Medians are
// printed beside them, outside the gate.
constexpr double kSustainedShare = 0.9;
// Latency samples kept per read window and per episode (Reservoir): every
// read is kept up to these counts, a uniform sample of them beyond, so the
// load generator's memory does not grow with throughput.
constexpr size_t kWindowSamples = 1 << 14;
constexpr size_t kEpisodeSamples = 1 << 17;
// Set-up-only builds per run, on top of one per episode, so setup_s is a
// median of many.
constexpr int kSetupProbes = 5;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double P(std::vector<double> v, double q) { return Percentile(v, q); }

// --- run-wide accounting -----------------------------------------------------

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> problems;

  void Note(const std::string& what) {
    if (problems.size() < 12) problems.push_back(what);
  }
  void FailCheck(const std::string& what) {
    checks_ok = false;
    Note("check failed: " + what);
  }
};

// Span names; indices are the SpanLog name ids.
enum SpanName : uint32_t {
  kReadVia,       // HttpClient::Get through the dispatcher
  kReadDirect,    // HttpClient::Get straight to one backend
  kServe,         // ServingSite::Serve in process
  kLookup,        // ObjectCache::Lookup
  kUpdate,        // one feed update: commit call until visible everywhere
  kApply,         // ResultFeed::Apply on one site (db commit + WAL)
  kQuiesce,       // ServingSite::Quiesce on one site
  kComputeAffected,
  kRenderOnly,
};
std::vector<std::string> SpanNames() {
  return {"dispatch.get",  "http.get_direct", "server.serve",
          "cache.lookup",  "feed.update",     "db.apply",
          "trigger.quiesce", "odg.compute_affected", "pagegen.render_only"};
}

// --- topologies --------------------------------------------------------------

// One WAL-backed ServingSite, prefetched, trigger running.
struct SiteTopology {
  std::string dir;
  std::unique_ptr<metrics::MetricRegistry> registry;
  std::unique_ptr<wal::WriteAheadLog> wal;
  std::unique_ptr<core::ServingSite> site;
  double create_s = 0;
  double prefetch_s = 0;
  double setup_s = 0;

  SiteTopology() = default;
  SiteTopology(const SiteTopology&) = delete;
  SiteTopology& operator=(const SiteTopology&) = delete;
  ~SiteTopology() {
    if (site != nullptr) site->StopTrigger();
    site.reset();
    wal.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// Builds a site in `dir`; with_wal=false leaves the database unlogged (the
// baseline of wal.apply_overhead_us).
std::unique_ptr<SiteTopology> BuildSite(const std::string& dir, bool with_wal,
                                        int cpu, Outcome& outcome) {
  auto topo = std::make_unique<SiteTopology>();
  topo->dir = dir;
  std::filesystem::remove_all(dir);  // a killed run may have left a log
  topo->registry = std::make_unique<metrics::MetricRegistry>();
  const perfbench::OwnTimer own(cpu);
  const int64_t t0 = NowNs();
  // The same pipeline settings DispatcherCluster gives each backend.
  core::SiteOptions options;
  options.olympic = perfbench::FullSite();
  options.trigger.worker_threads = 1;
  options.metrics.registry = topo->registry.get();
  options.metrics.instance = "bench/site";
  if (with_wal) {
    wal::WalOptions wal_options;
    wal_options.dir = dir;
    wal_options.metrics.registry = topo->registry.get();
    wal_options.metrics.instance = "bench/site-wal";
    auto wal_or = wal::WriteAheadLog::Open(wal_options);
    if (!wal_or.ok()) {
      outcome.FailCheck("wal open: " + wal_or.status().ToString());
      return nullptr;
    }
    topo->wal = std::move(wal_or.value());
    options.wal = topo->wal.get();
  }
  auto site_or = core::ServingSite::Create(std::move(options));
  if (!site_or.ok()) {
    outcome.FailCheck("site create: " + site_or.status().ToString());
    return nullptr;
  }
  topo->site = std::move(site_or.value());
  const int64_t t1 = NowNs();
  if (auto prefetched = topo->site->PrefetchAll(); !prefetched.ok()) {
    outcome.FailCheck("prefetch: " + prefetched.status().ToString());
    return nullptr;
  }
  const int64_t t2 = NowNs();
  topo->site->StartTrigger();
  // Set-up ends when the site can answer its first request from cache.
  if (topo->site->Serve("/medals").cls != server::ServeClass::kCacheHit) {
    outcome.FailCheck("first request after set-up was not a cache hit");
    return nullptr;
  }
  topo->create_s = static_cast<double>(t1 - t0) / 1e9;
  topo->prefetch_s = static_cast<double>(t2 - t1) / 1e9;
  topo->setup_s = own.ElapsedS();
  return topo;
}

// dispatch::DispatcherCluster: 2 WAL-backed backends, 1 front reactor.
struct ClusterTopology {
  std::string dir;
  std::unique_ptr<metrics::MetricRegistry> registry;
  std::unique_ptr<dispatch::DispatcherCluster> cluster;
  double setup_s = 0;

  ClusterTopology() = default;
  ClusterTopology(const ClusterTopology&) = delete;
  ClusterTopology& operator=(const ClusterTopology&) = delete;
  ~ClusterTopology() {
    cluster.reset();  // stops the dispatcher, front ends and triggers
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::vector<core::ServingSite*> sites() {
    std::vector<core::ServingSite*> out;
    for (size_t i = 0; i < cluster->backend_count(); ++i) {
      out.push_back(cluster->site(i));
    }
    return out;
  }

  // Sum of a counter over every cell whose site label ends with `suffix`.
  double CounterSum(std::string_view name, std::string_view suffix) const {
    double total = 0;
    for (const metrics::Sample& sample : registry->Snapshot()) {
      if (sample.name != name) continue;
      for (const auto& [key, value] : sample.labels) {
        if (key == "site" && value.ends_with(suffix)) total += sample.value;
      }
    }
    return total;
  }
};

std::unique_ptr<ClusterTopology> BuildCluster(const std::string& dir, int cpu,
                                              Outcome& outcome) {
  auto topo = std::make_unique<ClusterTopology>();
  topo->dir = dir;
  std::filesystem::remove_all(dir);  // a killed run may have left logs
  topo->registry = std::make_unique<metrics::MetricRegistry>();
  const perfbench::OwnTimer own(cpu);
  dispatch::ClusterOptions options;
  options.olympic = perfbench::FullSite();
  options.backends = 2;
  options.front_reactors = 1;
  options.wal_root = dir;
  options.metrics.registry = topo->registry.get();
  options.metrics.instance = "bench";
  topo->cluster = std::make_unique<dispatch::DispatcherCluster>(options);
  if (Status s = topo->cluster->Start(); !s.ok()) {
    outcome.FailCheck("cluster start: " + s.ToString());
    return nullptr;
  }
  // Set-up ends when the first request through the dispatcher is served.
  http::HttpClient client("127.0.0.1", topo->cluster->port());
  auto first = client.Get("/medals");
  if (!first.ok() || first.value().status != 200) {
    outcome.FailCheck("first request through the dispatcher failed");
    return nullptr;
  }
  topo->setup_s = own.ElapsedS();
  return topo;
}

// --- readers -----------------------------------------------------------------

struct ReadPlan {
  uint16_t port = 0;
  const std::vector<std::string>* pages = nullptr;
  size_t start = 0;
  perfbench::WindowMeter* meter = nullptr;  // completed reads, client-side
  perfbench::MixGate* gate = nullptr;  // read_during_feed only
  // Depth tracing (traced runs only): the backend to time directly.
  core::ServingSite* site = nullptr;
  uint16_t backend_port = 0;
  perfbench::SpanLog* spans = nullptr;
  const std::atomic<bool>* feed_active = nullptr;
};

struct ReadResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t version_regressions = 0;
  uint64_t unversioned = 0;    // 200s without an X-Nagano-Version header
  uint64_t direct_gets = 0;    // traced: extra GETs straight to a backend
  uint64_t direct_failed = 0;
  int64_t cpu_ns = 0;
  std::vector<std::string> problems;
  // Per-depth times (ns) of the sampled pages, same index = same page.
  std::vector<double> via, direct, serve, lookup;
  std::vector<double> lookup_under_feed;
};

// The page's X-Nagano-Version, or nullopt when the header is missing.
std::optional<uint64_t> VersionOf(const http::HttpResponse& response) {
  const auto it = response.headers.find("X-Nagano-Version");
  if (it == response.headers.end()) return std::nullopt;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

void ReadLoop(const ReadPlan& plan, const std::atomic<bool>& stop,
              ReadResult& out) {
  http::HttpClient::Options client_options;
  client_options.connect_timeout = 2 * kSecond;
  client_options.io_timeout = 5 * kSecond;
  std::unique_ptr<http::HttpClient> client;
  std::unique_ptr<http::HttpClient> direct;
  if (plan.site != nullptr) {
    direct = std::make_unique<http::HttpClient>("127.0.0.1", plan.backend_port,
                                                client_options);
  }
  // Highest version seen per page on the current connection.
  std::unordered_map<std::string_view, uint64_t> versions;
  const std::vector<std::string>& pages = *plan.pages;
  const int64_t cpu0 = perfbench::ThreadCpuNs();
  size_t cursor = plan.start;
  uint64_t n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (n % kReadsPerConnection == 0) {
      client = std::make_unique<http::HttpClient>(
          "127.0.0.1", plan.port, client_options);
      versions.clear();
    }
    if (plan.gate != nullptr && !plan.gate->BeforeRead()) break;
    const std::string& page = pages[cursor++ % pages.size()];
    const int64_t t0 = NowNs();
    auto response = client->Get(page);
    const int64_t t1 = NowNs();
    if (plan.gate != nullptr) plan.gate->ReadDone();
    ++n;
    if (!response.ok() || response.value().status != 200) {
      ++out.failed;
      if (out.problems.size() < 4) {
        out.problems.push_back(
            "GET " + page + ": " +
            (response.ok() ? std::to_string(response.value().status)
                           : response.status().ToString()));
      }
      continue;
    }
    ++out.ok;
    plan.meter->Add(t1, Ms(t1 - t0));
    const std::optional<uint64_t> version = VersionOf(response.value());
    if (!version) {
      ++out.unversioned;
    } else {
      uint64_t& seen = versions[page];
      if (*version < seen) ++out.version_regressions;
      seen = std::max(seen, *version);
    }

    if (plan.site != nullptr && n % kDepthEvery == 0) {
      const bool under_feed =
          plan.feed_active != nullptr && plan.feed_active->load();
      perfbench::SpanLog& spans = *plan.spans;
      perfbench::Span via{kReadVia, n, -1, t0, t1};
      spans.Add(via);
      const int64_t root = static_cast<int64_t>(spans.spans().size() - 1);
      int64_t span = spans.Open(kReadDirect, n, root);
      auto direct_response = direct->Get(page);
      spans.Close(span);
      ++out.direct_gets;
      if (!direct_response.ok() || direct_response.value().status != 200) {
        ++out.direct_failed;
        continue;
      }
      const double direct_ns =
          static_cast<double>(spans.spans().back().duration_ns());
      span = spans.Open(kServe, n, root);
      const server::ServeOutcome served = plan.site->Serve(page);
      spans.Close(span);
      const double serve_ns =
          static_cast<double>(spans.spans().back().duration_ns());
      span = spans.Open(kLookup, n, root);
      const bool hit = plan.site->cache().Lookup(page) != nullptr;
      spans.Close(span);
      const double lookup_ns =
          static_cast<double>(spans.spans().back().duration_ns());
      if (served.cls != server::ServeClass::kCacheHit || !hit) continue;
      out.via.push_back(static_cast<double>(t1 - t0));
      out.direct.push_back(direct_ns);
      out.serve.push_back(serve_ns);
      (under_feed ? out.lookup_under_feed : out.lookup).push_back(lookup_ns);
    }
  }
  out.cpu_ns = perfbench::ThreadCpuNs() - cpu0;
}

// --- the feed ----------------------------------------------------------------

struct FeedPlan {
  const std::vector<FeedUpdate>* schedule = nullptr;
  std::vector<core::ServingSite*> sites;
  perfbench::MixGate* gate = nullptr;  // nullptr = closed loop
  perfbench::WindowMeter* meter = nullptr;  // feed_games: visible updates
  perfbench::SpanLog* spans = nullptr;  // traced runs only
};

struct FeedResult {
  std::vector<double> ms;  // commit call -> visible on every site
  uint64_t ok = 0;
  uint64_t failed = 0;
  int64_t busy_ns = 0;
  std::vector<std::string> problems;
  // Traced runs: per-site Apply and Quiesce, and DUP + render of the same
  // update (ns); affected objects per update.
  std::vector<double> apply, quiesce, compute_affected, render;
  std::vector<double> affected;
};

// Applies the schedule to every site in order, each update committed on
// every site and then awaited with Quiesce() on every site before the next.
void FeedLoop(const FeedPlan& plan, const std::atomic<bool>& stop,
              FeedResult& out) {
  std::vector<workload::ResultFeed> feeds;
  for (core::ServingSite* site : plan.sites) {
    feeds.emplace_back(&site->db(), workload::FeedOptions(), /*seed=*/0);
  }
  uint64_t index = 0;
  out.ms.reserve(plan.schedule->size());
  for (const FeedUpdate& update : *plan.schedule) {
    if (stop.load(std::memory_order_relaxed)) break;
    if (plan.gate != nullptr && !plan.gate->BeforeUpdate(index)) break;
    ++index;
    perfbench::SpanLog* spans = plan.spans;
    const uint64_t seqno_before = plan.sites[0]->db().LastSeqno();
    const int64_t t0 = NowNs();
    const int64_t root = spans ? spans->Open(kUpdate, index) : -1;
    bool ok = true;
    for (size_t i = 0; i < plan.sites.size(); ++i) {
      const int64_t span = spans ? spans->Open(kApply, index, root) : -1;
      const Status s = feeds[i].Apply(update);
      if (spans) spans->Close(span);
      if (!s.ok()) {
        ok = false;
        if (out.problems.size() < 4) {
          out.problems.push_back("apply: " + s.ToString());
        }
      }
    }
    for (core::ServingSite* site : plan.sites) {
      const int64_t span = spans ? spans->Open(kQuiesce, index, root) : -1;
      site->Quiesce();
      if (spans) spans->Close(span);
    }
    if (spans) spans->Close(root);
    const int64_t t1 = NowNs();
    if (plan.gate != nullptr) plan.gate->UpdateDone();
    out.busy_ns += t1 - t0;
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    out.ms.push_back(Ms(t1 - t0));
    if (plan.meter != nullptr) plan.meter->Add(t1, out.ms.back());
    if (spans == nullptr) continue;

    // DUP and one re-render of this update, timed outside its update span.
    core::ServingSite& site = *plan.sites[0];
    std::vector<odg::NodeId> changed;
    auto batch = site.db().ReadChanges(site.db().CursorAtGlobal(seqno_before));
    if (!batch.ok()) continue;
    for (const auto& change : batch.value().records) {
      for (const auto& node :
           pagegen::OlympicSite::MapChangeToDataNodes(change, site.db())) {
        const auto id = site.graph().Find(node);
        if (id != odg::kInvalidNode) changed.push_back(id);
      }
    }
    int64_t span = spans->Open(kComputeAffected, index);
    const odg::DupResult dup =
        odg::DupEngine::ComputeAffected(site.graph(), changed);
    spans->Close(span);
    out.compute_affected.push_back(
        static_cast<double>(spans->spans().back().duration_ns()));
    out.affected.push_back(static_cast<double>(dup.affected.size()));
    if (dup.affected.empty()) continue;
    // The last affected object is a page (dependency order puts fragments
    // first).
    const std::string page(site.graph().name(dup.affected.back().id));
    span = spans->Open(kRenderOnly, index);
    const bool rendered = site.renderer().RenderOnly(page).ok();
    spans->Close(span);
    if (rendered) {
      out.render.push_back(
          static_cast<double>(spans->spans().back().duration_ns()));
    }
  }
  // Per-update durations from the spans keep their own vectors.
  if (plan.spans != nullptr) {
    for (const perfbench::Span& s : plan.spans->spans()) {
      const double ns = static_cast<double>(s.duration_ns());
      if (s.name == kApply) out.apply.push_back(ns);
      if (s.name == kQuiesce) out.quiesce.push_back(ns);
    }
  }
}

// --- end-of-episode checks ---------------------------------------------------

// Every site's cache matches a fresh render of its database, and all sites
// hold byte-identical caches. Returns the shared digest (0 on failure).
uint64_t CheckSites(const std::vector<core::ServingSite*>& sites,
                    Outcome& outcome) {
  uint64_t digest = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i]->Quiesce();
    auto verified = sites[i]->VerifyCacheConsistency();
    if (!verified.ok()) {
      outcome.FailCheck("site " + std::to_string(i) + " cache inconsistent: " +
                        verified.status().ToString());
      return 0;
    }
    size_t entries = 0;
    const uint64_t d = perfbench::CacheDigest(sites[i]->cache(), &entries);
    if (i == 0) {
      digest = d;
    } else if (d != digest) {
      outcome.FailCheck("backend caches differ (site 0 vs site " +
                        std::to_string(i) + ")");
      return 0;
    }
  }
  return digest;
}

// --- workloads ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  int cpu = -1;  // the CPU the process is pinned to
};

// Everything one run measured; turned into the metrics at the end.
struct Measured {
  Outcome outcome;
  // Foreground operations (reads or feed updates) of untraced episodes.
  uint64_t ops = 0;
  double op_s = 0;  // measured foreground time
  double busy_s = 0;  // feed_games: feed time of every pass, traced included
  // Rate and latency p50 per window of untraced episodes; see kWindowNs and
  // kSustainedShare.
  std::vector<double> unit_rates, unit_p50s;
  // Foreground latency p50 and p99 of each untraced episode (feed_games:
  // each pass), and the p50 of each traced one (tracing overhead).
  std::vector<double> episode_p50s, episode_p99s, traced_p50s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;  // peak RSS of each untraced episode
  // read_during_feed: the feed in its fixed mix with the reads.
  std::vector<double> mixed_feed_ms;
  uint64_t mixed_feed_ops = 0;
  bool reads_foreground = true;

  // Per-layer inputs (traced episodes).
  std::vector<double> via, direct, serve, lookup, lookup_under_feed;
  std::vector<double> apply, apply_no_wal, quiesce, compute_affected, render,
      affected;
  double site_updates = 0;  // updates x sites in traced feed episodes
  double fsyncs = 0, wal_bytes = 0, renders = 0, plans_patched = 0,
         rerendered_bytes = 0;
  double reads_traced = 0, body_copies = 0;
  double backend_connects = 0, failovers = 0;
  std::vector<double> backend_share;  // min share per traced episode
  double serve_hits = 0, serve_lookups = 0;
  std::vector<double> create_s, prefetch_s;
  double sample_ns = 0;
  int64_t loadgen_cpu_ns = 0, process_cpu_ns = 0;
  std::vector<perfbench::SpanLog> span_logs;
};

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

std::string EpisodeDir(const Args& args, int episode) {
  return args.work_dir + "/ep" + std::to_string(episode);
}

struct TriggerTotals {
  double renders = 0, plans_patched = 0, rerendered_bytes = 0;
};
TriggerTotals SumTrigger(const std::vector<core::ServingSite*>& sites) {
  TriggerTotals t;
  for (core::ServingSite* site : sites) {
    const trigger::TriggerStats s = site->trigger_monitor().stats();
    t.renders += static_cast<double>(s.objects_updated);
    t.plans_patched += static_cast<double>(s.plans_patched);
    t.rerendered_bytes += static_cast<double>(s.rerendered_bytes);
  }
  return t;
}

// One cluster episode: closed-loop readers for `seconds` against a fresh
// DispatcherCluster, with the feed in a fixed mix with the reads when
// `schedule` is set.
void ClusterEpisode(const Args& args, int episode, bool traced,
                    const std::vector<std::string>& pages,
                    const std::vector<FeedUpdate>* schedule, double seconds,
                    Measured& m) {
  perfbench::ResetPeakRss();
  auto topo = BuildCluster(EpisodeDir(args, episode), args.cpu, m.outcome);
  if (topo == nullptr) return;
  m.setup_s.push_back(topo->setup_s);
  dispatch::DispatcherCluster& cluster = *topo->cluster;
  const std::vector<core::ServingSite*> sites = topo->sites();
  const bool with_feed = schedule != nullptr;

  std::atomic<bool> stop{false};
  std::atomic<bool> feed_active{false};
  perfbench::MixGate gate(kReadsPerUpdate, kMixSlack);
  std::vector<ReadResult> reads(kReaders);
  std::vector<perfbench::SpanLog> logs(kReaders + 1,
                                       perfbench::SpanLog(SpanNames()));
  const int64_t t0 = NowNs();
  perfbench::WindowMeter meter(
      t0, kWindowNs, static_cast<size_t>(seconds * 1e9 / kWindowNs),
      kWindowSamples, kEpisodeSamples, args.seed + episode,
      [cpu = args.cpu] { return perfbench::ReadCpuTime(cpu).stolen_ns; });
  std::vector<ReadPlan> plans(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    ReadPlan& plan = plans[static_cast<size_t>(r)];
    plan.port = cluster.port();
    plan.pages = &pages;
    plan.start = static_cast<size_t>(r) * pages.size() / kReaders +
                 static_cast<size_t>(episode) * 7919;
    plan.meter = &meter;
    if (with_feed) plan.gate = &gate;
    if (traced) {
      const size_t b = static_cast<size_t>(r) % sites.size();
      plan.site = sites[b];
      plan.backend_port = cluster.backend_port(b);
      plan.spans = &logs[static_cast<size_t>(r)];
      plan.feed_active = &feed_active;
    }
  }
  FeedResult feed;
  FeedPlan feed_plan;
  feed_plan.schedule = schedule;
  feed_plan.sites = sites;
  feed_plan.gate = &gate;
  if (traced) feed_plan.spans = &logs[kReaders];

  const TriggerTotals trigger_before = SumTrigger(sites);
  const double fsyncs_before =
      topo->CounterSum("nagano_wal_fsyncs_total", "-wal");
  const double bytes_before =
      topo->CounterSum("nagano_wal_bytes_total", "-wal");
  const dispatch::DispatcherStats dispatch_before =
      cluster.dispatcher().stats();
  const int64_t cpu_before = perfbench::ProcessCpuNs();

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReadLoop, std::cref(plans[static_cast<size_t>(r)]),
                         std::cref(stop),
                         std::ref(reads[static_cast<size_t>(r)]));
  }
  std::thread feeder;
  if (with_feed) {
    feed_active = true;
    feeder = std::thread([&] {
      FeedLoop(feed_plan, stop, feed);
      feed_active = false;
    });
  }
  // The episode ends after `seconds`, or early if the feed ran out of
  // updates (the mix could not hold after that).
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline && !(with_feed && !feed_active)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  gate.Stop();
  for (std::thread& t : threads) t.join();
  const int64_t t1 = NowNs();
  meter.Finish(t1);
  if (feeder.joinable()) feeder.join();
  const int64_t cpu_after = perfbench::ProcessCpuNs();

  // Whole-episode accounting.
  ReadResult all_reads;
  for (ReadResult& r : reads) {
    all_reads.ok += r.ok;
    all_reads.failed += r.failed;
    all_reads.version_regressions += r.version_regressions;
    all_reads.unversioned += r.unversioned;
    all_reads.direct_gets += r.direct_gets;
    all_reads.direct_failed += r.direct_failed;
    all_reads.cpu_ns += r.cpu_ns;
    for (const std::string& p : r.problems) m.outcome.Note(p);
    Append(m.via, r.via);
    Append(m.direct, r.direct);
    Append(m.serve, r.serve);
    Append(m.lookup, r.lookup);
    Append(m.lookup_under_feed, r.lookup_under_feed);
  }
  for (const std::string& p : feed.problems) m.outcome.Note(p);
  m.outcome.attempted += all_reads.ok + all_reads.failed +
                         all_reads.direct_gets + feed.ok + feed.failed;
  m.outcome.failed += all_reads.failed + all_reads.direct_failed + feed.failed;
  if (all_reads.version_regressions > 0) {
    m.outcome.FailCheck(std::to_string(all_reads.version_regressions) +
                        " reads saw X-Nagano-Version go backwards");
  }
  if (all_reads.unversioned > 0) {
    m.outcome.FailCheck(std::to_string(all_reads.unversioned) +
                        " reads came back without X-Nagano-Version");
  }
  const double window_s = static_cast<double>(t1 - t0) / 1e9;
  if (traced) {
    m.traced_p50s.push_back(meter.Quantile(0.5));
  } else {
    Append(m.unit_rates, meter.rates());
    Append(m.unit_p50s, meter.p50s());
    m.episode_p50s.push_back(meter.Quantile(0.5));
    m.episode_p99s.push_back(meter.Quantile(0.99));
    m.ops += all_reads.ok;
    m.op_s += window_s;
    Append(m.mixed_feed_ms, feed.ms);
    m.mixed_feed_ops += feed.ok;
  }
  std::printf("  episode %d%s: set-up %.3f s, %llu reads (%.0f/s), %llu "
              "updates\n",
              episode, traced ? " (traced)" : "", topo->setup_s,
              static_cast<unsigned long long>(all_reads.ok),
              static_cast<double>(all_reads.ok) / window_s,
              static_cast<unsigned long long>(feed.ok));
  (void)CheckSites(sites, m.outcome);

  if (!traced) {
    m.rss_mb.push_back(perfbench::PeakRssMb());
    return;
  }
  // Per-layer counts of this traced episode.
  const TriggerTotals trigger_after = SumTrigger(sites);
  const double site_updates = static_cast<double>(feed.ok * sites.size());
  m.site_updates += site_updates;
  m.renders += trigger_after.renders - trigger_before.renders;
  m.plans_patched += trigger_after.plans_patched - trigger_before.plans_patched;
  m.rerendered_bytes +=
      trigger_after.rerendered_bytes - trigger_before.rerendered_bytes;
  m.fsyncs +=
      topo->CounterSum("nagano_wal_fsyncs_total", "-wal") - fsyncs_before;
  m.wal_bytes +=
      topo->CounterSum("nagano_wal_bytes_total", "-wal") - bytes_before;
  Append(m.apply, feed.apply);
  Append(m.quiesce, feed.quiesce);
  Append(m.compute_affected, feed.compute_affected);
  Append(m.render, feed.render);
  Append(m.affected, feed.affected);

  m.reads_traced += static_cast<double>(all_reads.ok);
  m.body_copies += topo->CounterSum("nagano_http_body_copies_total", "");
  m.backend_connects +=
      topo->CounterSum("nagano_http_connections_accepted_total", "-http");
  m.failovers += static_cast<double>(cluster.dispatcher().stats().failovers -
                                     dispatch_before.failovers);
  double total = 0, least = -1;
  for (const dispatch::BackendSnapshot& b : cluster.dispatcher().snapshots()) {
    total += static_cast<double>(b.requests);
  }
  for (const dispatch::BackendSnapshot& b : cluster.dispatcher().snapshots()) {
    const double share =
        total > 0 ? static_cast<double>(b.requests) / total : 0;
    least = least < 0 ? share : std::min(least, share);
  }
  m.backend_share.push_back(std::max(0.0, least));
  for (core::ServingSite* site : sites) {
    const server::ServeStats s = site->page_server().stats();
    m.serve_hits += static_cast<double>(s.cache_hits);
    m.serve_lookups += static_cast<double>(s.cache_hits + s.cache_misses);
  }
  m.loadgen_cpu_ns += all_reads.cpu_ns;
  m.process_cpu_ns += cpu_after - cpu_before;
  for (perfbench::SpanLog& log : logs) m.span_logs.push_back(std::move(log));
}

// One feed_games episode: a fresh WAL-backed site (or an unlogged one, for
// the WAL-overhead baseline) and one closed-loop pass of the feed.
// Returns the final cache digest (0 on failure).
uint64_t SiteEpisode(const Args& args, int episode, bool traced, bool with_wal,
                     const std::vector<FeedUpdate>& schedule, Measured& m) {
  perfbench::ResetPeakRss();
  auto topo =
      BuildSite(EpisodeDir(args, episode), with_wal, args.cpu, m.outcome);
  if (topo == nullptr) return 0;
  core::ServingSite& site = *topo->site;
  if (with_wal) {
    m.setup_s.push_back(topo->setup_s);
    m.create_s.push_back(topo->create_s);
    m.prefetch_s.push_back(topo->prefetch_s);
  }
  const wal::WalStats wal_before =
      topo->wal ? topo->wal->stats() : wal::WalStats{};
  perfbench::SpanLog log(SpanNames());
  FeedPlan plan;
  plan.schedule = &schedule;
  plan.sites = {&site};
  if (traced) plan.spans = &log;
  // Windows of this pass; a pass longer than a minute is measured only up
  // to there, and the partial window at its end is dropped.
  perfbench::WindowMeter meter(
      NowNs(), kWindowNs, static_cast<size_t>(60 * kSecond / kWindowNs),
      kWindowSamples, kWindowSamples, args.seed + episode,
      [cpu = args.cpu] { return perfbench::ReadCpuTime(cpu).stolen_ns; });
  plan.meter = &meter;
  FeedResult feed;
  std::atomic<bool> stop{false};
  FeedLoop(plan, stop, feed);
  meter.Finish(NowNs());
  m.busy_s += static_cast<double>(feed.busy_ns) / 1e9;
  for (const std::string& p : feed.problems) m.outcome.Note(p);
  m.outcome.attempted += feed.ok + feed.failed;
  m.outcome.failed += feed.failed;
  std::printf("  episode %d%s%s: set-up %.3f s, %llu updates (%.0f/s)\n",
              episode, traced ? " (traced)" : "", with_wal ? "" : " (no WAL)",
              topo->setup_s, static_cast<unsigned long long>(feed.ok),
              static_cast<double>(feed.ok) * 1e9 /
                  static_cast<double>(std::max<int64_t>(feed.busy_ns, 1)));
  const uint64_t digest = CheckSites({&site}, m.outcome);

  if (!traced) {
    m.rss_mb.push_back(perfbench::PeakRssMb());
    Append(m.unit_rates, meter.rates());
    Append(m.unit_p50s, meter.p50s());
    m.episode_p50s.push_back(P(feed.ms, 0.5));
    m.episode_p99s.push_back(P(feed.ms, 0.99));
    m.ops += feed.ok;
    m.op_s += static_cast<double>(feed.busy_ns) / 1e9;
    return digest;
  }
  if (!with_wal) {
    Append(m.apply_no_wal, feed.apply);
    m.span_logs.push_back(std::move(log));
    return digest;
  }
  m.traced_p50s.push_back(P(feed.ms, 0.5));
  const trigger::TriggerStats ts = site.trigger_monitor().stats();
  m.site_updates += static_cast<double>(feed.ok);
  m.renders += static_cast<double>(ts.objects_updated);
  m.plans_patched += static_cast<double>(ts.plans_patched);
  m.rerendered_bytes += static_cast<double>(ts.rerendered_bytes);
  const wal::WalStats wal_after = topo->wal->stats();
  m.fsyncs += static_cast<double>(wal_after.fsyncs - wal_before.fsyncs);
  m.wal_bytes +=
      static_cast<double>(wal_after.bytes_appended - wal_before.bytes_appended);
  Append(m.apply, feed.apply);
  Append(m.quiesce, feed.quiesce);
  Append(m.compute_affected, feed.compute_affected);
  Append(m.render, feed.render);
  Append(m.affected, feed.affected);
  m.span_logs.push_back(std::move(log));
  return digest;
}

void RunFeedGames(const Args& args, Measured& m) {
  const auto schedule = perfbench::MakeFeedSchedule(args.seed);
  m.reads_foreground = false;
  for (int i = 0; i < kSetupProbes && !args.trace; ++i) {
    auto topo = BuildSite(args.work_dir + "/setup", true, args.cpu, m.outcome);
    if (topo != nullptr) m.setup_s.push_back(topo->setup_s);
  }
  uint64_t digest = 0;
  // Untraced: passes until the measured time is spent. Traced: cycles of an
  // untraced, a traced and a traced-without-WAL pass.
  const int kinds = args.trace ? 3 : 1;
  for (int episode = 0; m.outcome.checks_ok; ++episode) {
    const int kind = episode % kinds;
    const uint64_t d = SiteEpisode(args, episode, /*traced=*/kind > 0,
                                   /*with_wal=*/kind < 2, schedule, m);
    if (d != 0 && digest != 0 && d != digest) {
      m.outcome.FailCheck("final cache differs between passes of one feed");
    }
    if (d != 0) digest = d;
    const int min_episodes = args.trace ? 2 * kinds : kMinEpisodes;
    if (episode + 1 >= min_episodes && m.busy_s >= args.seconds) break;
  }
}

void RunCluster(const Args& args, bool with_feed, Measured& m) {
  double sample_ns = 0;
  const auto pages =
      perfbench::MakeReadSequence(args.seed, kReadSequence, kReadDay,
                                  &sample_ns);
  m.sample_ns = sample_ns;
  // The feed starts at the read day, so the first updates of every episode
  // land on the hot day-8 pages, and wraps around to day 1 after day 16.
  std::vector<FeedUpdate> schedule;
  if (with_feed) {
    std::vector<size_t> day_starts;
    schedule = perfbench::MakeFeedSchedule(args.seed, &day_starts);
    std::rotate(schedule.begin(),
                schedule.begin() + static_cast<long>(day_starts[kReadDay - 1]),
                schedule.end());
  }
  if (args.trace) {
    // Per-layer set-up split: one standalone backend-shaped site.
    auto site =
        BuildSite(args.work_dir + "/setup-probe", true, args.cpu, m.outcome);
    if (site != nullptr) {
      m.create_s.push_back(site->create_s);
      m.prefetch_s.push_back(site->prefetch_s);
    }
  }
  for (int i = 0; i < kSetupProbes && !args.trace; ++i) {
    auto topo = BuildCluster(args.work_dir + "/setup", args.cpu, m.outcome);
    if (topo != nullptr) m.setup_s.push_back(topo->setup_s);
  }
  // Traced runs alternate untraced and traced episodes.
  const int episodes = args.trace ? 4 : kMinEpisodes;
  for (int e = 0; e < episodes && m.outcome.checks_ok; ++e) {
    ClusterEpisode(args, e, args.trace && e % 2 == 1, pages,
                   with_feed ? &schedule : nullptr, args.seconds / episodes, m);
  }
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintLatency(const std::string& name, double p50, double p99,
                  const char* over) {
  std::printf("  %-20s %.4f ms\n  %-20s %.4f ms (%s)\n",
              (name + "_p50_ms").c_str(), p50, (name + "_p99_ms").c_str(), p99,
              over);
}

// Pins the whole process (every thread it starts inherits the mask) to the
// highest-numbered CPU it may use; returns that CPU, or -1.
//
// Why one CPU: with the threads spread over several vCPUs, every handoff
// in the request chain (client -> dispatcher -> backend -> back) wakes an
// idle vCPU, and on a shared VM host that wake-up latency swung closed-loop
// throughput 2-4x from minute to minute. On one CPU each handoff is a plain
// context switch, so the figures measure the program's own cost per
// operation. Gains from running on more cores do not show here.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value);
    else if (flag == "--trace") args.trace = std::string_view(value) == "1";
    else if (flag == "--work-dir") args.work_dir = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  args.cpu = PinToOneCpu();
  if (args.cpu < 0) {
    std::fprintf(stderr, "could not pin the benchmark to one CPU\n");
    return 2;
  }

  const double calibration_before = perfbench::CalibrationMs();
  const perfbench::CpuTime cpu_before = perfbench::ReadCpuTime(args.cpu);
  Measured m;
  if (args.workload == "read_zipf") {
    RunCluster(args, /*with_feed=*/false, m);
  } else if (args.workload == "read_during_feed") {
    RunCluster(args, /*with_feed=*/true, m);
  } else if (args.workload == "feed_games") {
    RunFeedGames(args, m);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const perfbench::CpuTime cpu_after = perfbench::ReadCpuTime(args.cpu);
  const double calibration_after = perfbench::CalibrationMs();

  // --- report: every path metric the workload exercises, by its own name,
  // from all samples; then host evidence for judging a noisy run.
  const bool reads_fg = m.reads_foreground;
  const char* fg_rate = reads_fg ? "read_rps" : "feed_updates_per_s";
  const char* fg_lat = reads_fg ? "read" : "fresh";
  const double all_rate =
      m.op_s > 0 ? static_cast<double>(m.ops) / m.op_s : 0;
  std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  if (!args.trace) {
    std::printf("  %-20s %.2f 1/s (all samples)\n", fg_rate, all_rate);
    std::printf("  %-20s %.2f 1/s, p50 %.4f ms (sustained in %.0f%% of %zu "
                "0.25-s windows, gated); medians %.2f 1/s, %.4f ms\n",
                reads_fg ? "read windows" : "feed windows",
                P(m.unit_rates, 1 - kSustainedShare),
                P(m.unit_p50s, kSustainedShare), 100 * kSustainedShare,
                m.unit_rates.size(),
                perfbench::Median(m.unit_rates),
                perfbench::Median(m.unit_p50s));
    PrintLatency(fg_lat, perfbench::Median(m.episode_p50s),
                 perfbench::Median(m.episode_p99s),
                 reads_fg ? "medians over episodes of all reads"
                          : "medians over passes of all updates");
    if (m.mixed_feed_ops > 0) {
      const double feed_rate = static_cast<double>(m.mixed_feed_ops) / m.op_s;
      std::printf("  %-20s %.2f 1/s (one per %llu reads)\n",
                  "feed_updates_per_s", feed_rate,
                  static_cast<unsigned long long>(kReadsPerUpdate));
      PrintLatency("fresh", P(m.mixed_feed_ms, 0.5), P(m.mixed_feed_ms, 0.99),
                   "all updates");
    }
    std::printf("  %-20s %.4f s (median of %zu set-ups)\n", "setup_s",
                perfbench::Median(m.setup_s), m.setup_s.size());
    std::printf("  %-20s %.2f MB (median over episodes of the process peak, "
                "load generator included)\n",
                "rss_mb", perfbench::Median(m.rss_mb));
  }
  std::printf("  host: pinned to cpu %d; calibration %.4f ms before, %.4f "
              "ms after; %.1f%% of that CPU's time stolen by the hypervisor "
              "during the run (taken out of the gated rates and set-up "
              "times)\n",
              args.cpu, calibration_before, calibration_after,
              100.0 * perfbench::StealShare(cpu_before, cpu_after));
  for (const std::string& p : m.outcome.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", P(m.unit_rates, 1 - kSustainedShare), "1/s"},
        {"op_p50_ms", P(m.unit_p50s, kSustainedShare), "ms"},
        {"setup_s", perfbench::Median(m.setup_s), "s"},
        {"rss_mb", perfbench::Median(m.rss_mb), "MB"},
    };
  } else {
    // The depth chain's innermost time is the lookup of the same pages,
    // with or without the feed running (read_during_feed has only the
    // latter); cache.lookup_p50_ns* report the two apart.
    std::vector<double> lookup_all = m.lookup;
    Append(lookup_all, m.lookup_under_feed);
    const double via = P(m.via, 0.5), direct = P(m.direct, 0.5),
                 serve = P(m.serve, 0.5), lookup = P(lookup_all, 0.5);
    const std::vector<double> self =
        perfbench::DepthSelfTimes({via, direct, serve, lookup});
    const auto per = [](double total, double n) {
      return n > 0 ? total / n : 0.0;
    };
    const double apply_wal = P(m.apply, 0.5);
    const double apply_no_wal = P(m.apply_no_wal, 0.5);
    const bool have_reads = !m.via.empty();
    metrics = {
        {"dispatch.hop_p50_us", have_reads ? self[0] / 1e3 : 0, "us"},
        {"dispatch.backend_share_min",
         m.backend_share.empty() ? 0 : perfbench::Median(m.backend_share),
         "ratio"},
        {"dispatch.backend_connects",
         per(m.backend_connects, m.reads_traced / 1e3), "1/kread"},
        {"dispatch.failovers", m.failovers, "count"},
        {"http.get_direct_p50_us", have_reads ? self[1] / 1e3 : 0, "us"},
        {"http.body_copies", per(m.body_copies, m.reads_traced), "1/read"},
        {"server.serve_p50_us", have_reads ? self[2] / 1e3 : 0, "us"},
        {"server.hit_ratio", per(m.serve_hits, m.serve_lookups), "ratio"},
        {"cache.lookup_p50_ns", P(m.lookup, 0.5), "ns"},
        {"cache.lookup_p50_ns_feed", P(m.lookup_under_feed, 0.5), "ns"},
        {"db.apply_p50_us", apply_wal / 1e3, "us"},
        {"wal.fsyncs_per_update", per(m.fsyncs, m.site_updates), "1/update"},
        {"wal.bytes_per_update", per(m.wal_bytes, m.site_updates), "B/update"},
        {"wal.apply_overhead_us",
         m.apply_no_wal.empty() ? 0 : (apply_wal - apply_no_wal) / 1e3, "us"},
        {"trigger.quiesce_p50_us", P(m.quiesce, 0.5) / 1e3, "us"},
        {"trigger.quiesce_p99_us", P(m.quiesce, 0.99) / 1e3, "us"},
        {"trigger.renders_per_update", per(m.renders, m.site_updates),
         "1/update"},
        {"trigger.plans_patched_per_update",
         per(m.plans_patched, m.site_updates), "1/update"},
        {"trigger.rerendered_bytes_per_update",
         per(m.rerendered_bytes, m.site_updates), "B/update"},
        {"odg.compute_affected_p50_us", P(m.compute_affected, 0.5) / 1e3, "us"},
        {"odg.affected_per_update",
         m.affected.empty() ? 0 : perfbench::Median(m.affected), "count"},
        {"pagegen.render_p50_us", P(m.render, 0.5) / 1e3, "us"},
        {"core.create_s", perfbench::Median(m.create_s), "s"},
        {"core.prefetch_s", perfbench::Median(m.prefetch_s), "s"},
        {"loadgen.sample_ns", m.sample_ns, "ns"},
        {"loadgen.cpu_share",
         m.process_cpu_ns > 0 ? static_cast<double>(m.loadgen_cpu_ns) /
                                    static_cast<double>(m.process_cpu_ns)
                              : 0,
         "ratio"},
        {"trace.overhead_us",
         (perfbench::Median(m.traced_p50s) -
          perfbench::Median(m.episode_p50s)) * 1e3,
         "us"},
    };
    std::printf("  depth p50s (us): via %.2f direct %.2f serve %.2f lookup "
                "%.3f "
                "(n=%zu)\n",
                via / 1e3, direct / 1e3, serve / 1e3, lookup / 1e3,
                m.via.size());
    // Spans, written when the run ends.
    std::string lines;
    for (const perfbench::SpanLog& log : m.span_logs) {
      log.WriteJsonLines(&lines);
    }
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    std::ofstream(path) << lines;
    std::printf("  spans: %s\n", path.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }

  const bool correct = m.outcome.checks_ok && m.outcome.failed == 0 &&
                       m.outcome.attempted > 0;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.outcome.attempted) +
                     ", \"failed\": " + std::to_string(m.outcome.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + Json(metrics[i].name) +
            ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
