// THRU — §1/§2 serving-cost claims, measured with google-benchmark on the
// real serving path (no simulated costs — wall-clock of the actual code):
//
//   * "a single server can serve several hundred dynamic pages per second
//      if the pages are cacheable"
//   * "Cached dynamic pages can be served ... at roughly the same rates as
//      static pages"
//   * an uncached dynamic page costs orders of magnitude more than a
//      cached one (render + DB reads vs a hash lookup)
//
// Also includes the co-location ablation (§2): the 1996 site ran updates
// on the serving processors; serving throughput under a concurrent update
// storm shows the interference the 1998 design avoided by moving the
// trigger monitor to separate processors.
//
// Custom main: after the google-benchmark micro benches, a multi-reactor
// HTTP sweep (reactors 1/2/4/8, round-robin accept for deterministic
// balance) drives the real epoll server with keep-alive clients on a pure
// cache-hit workload and emits BENCH_throughput.json — aggregate req/s,
// client-side p99 latency, per-reactor balance, and the
// nagano_http_body_copies_total proof that a hit never copies its body.
// `--quick` runs a short sweep and compares against a committed
// BENCH_throughput.json baseline instead of writing one (the ci.sh
// throughput smoke leg: >20% regression or any hit-path body copy fails).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/serving_site.h"
#include "http/client.h"
#include "workload/sampler.h"

using namespace nagano;

namespace {

core::SiteOptions BenchSite() {
  core::SiteOptions options;
  options.olympic.days = 8;
  options.olympic.num_sports = 5;
  options.olympic.events_per_sport = 8;
  options.olympic.athletes_per_event = 10;
  options.olympic.num_countries = 16;
  return options;
}

struct SiteFixtureState {
  std::unique_ptr<core::ServingSite> site;
  std::unique_ptr<workload::PageSampler> sampler;

  SiteFixtureState() {
    auto site_or = core::ServingSite::Create(BenchSite());
    if (!site_or.ok()) std::abort();
    site = std::move(site_or).value();
    if (!site->PrefetchAll().ok()) std::abort();
    sampler = std::make_unique<workload::PageSampler>(site->olympic_config(),
                                                      site->db());
    sampler->SetCurrentDay(2);
  }
};

SiteFixtureState& State() {
  static SiteFixtureState state;
  return state;
}

void BM_ServeStaticPage(benchmark::State& bench_state) {
  auto& s = State();
  s.site->page_server().AddStaticPage("/static/about", std::string(8192, 'x'));
  for (auto _ : bench_state) {
    auto out = s.site->Serve("/static/about");
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeStaticPage);

void BM_ServeCachedDynamicPage(benchmark::State& bench_state) {
  auto& s = State();
  for (auto _ : bench_state) {
    auto out = s.site->Serve("/day/2");
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeCachedDynamicPage);

void BM_ServeCachedDynamicZipfMix(benchmark::State& bench_state) {
  auto& s = State();
  Rng rng(7);
  for (auto _ : bench_state) {
    auto out = s.site->Serve(s.sampler->Sample(rng));
    benchmark::DoNotOptimize(out.bytes);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeCachedDynamicZipfMix);

void BM_GenerateUncachedDynamicPage(benchmark::State& bench_state) {
  auto& s = State();
  for (auto _ : bench_state) {
    // RenderOnly regenerates from the database every time — the cost a
    // cache miss pays.
    auto body = s.site->renderer().RenderOnly("/day/2");
    benchmark::DoNotOptimize(body);
  }
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_GenerateUncachedDynamicPage);

void BM_ServeOverRealHttp(benchmark::State& bench_state) {
  auto& s = State();
  server::HttpFrontEnd front(&s.site->page_server(), {});
  if (!front.Start().ok()) std::abort();
  {
    http::HttpClient client("127.0.0.1", front.port());
    for (auto _ : bench_state) {
      auto resp = client.Get("/day/2");
      if (!resp.ok()) std::abort();
      benchmark::DoNotOptimize(resp.value().body.size());
    }
  }
  front.Stop();
  bench_state.SetItemsProcessed(bench_state.iterations());
}
BENCHMARK(BM_ServeOverRealHttp);

// Ablation: serving while an update storm regenerates pages. arg(0)==0:
// updates on the trigger monitor's own thread (1998 design — serving
// thread only serves). arg(0)==1: co-located, the serving thread itself
// applies every update synchronously before serving (1996 design).
void BM_ServeDuringUpdateStorm(benchmark::State& bench_state) {
  const bool colocated = bench_state.range(0) == 1;
  auto site_or = core::ServingSite::Create(BenchSite());
  if (!site_or.ok()) std::abort();
  auto& site = *site_or.value();
  if (!site.PrefetchAll().ok()) std::abort();
  site.StartTrigger();

  workload::PageSampler sampler(site.olympic_config(), site.db());
  sampler.SetCurrentDay(2);
  Rng rng(11);
  int64_t event = 1;
  int rank = 1;
  for (auto _ : bench_state) {
    // One scoring update per 20 serves, as a steady background rate.
    (void)site.RecordResult(event, rank, rank, 80.0 + rank);
    // 1996: the serving processor blocks until the regeneration work is
    // done before it can serve. 1998: regeneration proceeds on the trigger
    // monitor's thread while this thread serves immediately.
    if (colocated) site.Quiesce();
    ++rank;
    if (rank > 20) {
      rank = 1;
      event = event % 30 + 1;
    }
    auto out = site.Serve(sampler.Sample(rng));
    benchmark::DoNotOptimize(out.bytes);
  }
  site.Quiesce();
  site.StopTrigger();
  bench_state.SetItemsProcessed(bench_state.iterations());
  bench_state.SetLabel(colocated ? "colocated-1996" : "separate-1998");
  // Per-stage pipeline counters from the trigger monitor, so the storm
  // bench shows how much regeneration work rode behind the serving numbers.
  const auto tstats = site.trigger_monitor().stats();
  bench_state.counters["batches"] = static_cast<double>(tstats.batches);
  bench_state.counters["coalesced"] =
      static_cast<double>(tstats.changes_coalesced);
  bench_state.counters["renders"] =
      static_cast<double>(tstats.renders_attempted);
  bench_state.counters["updated"] = static_cast<double>(tstats.objects_updated);
  bench_state.counters["batch_ms_p99"] = tstats.batch_apply_ms.Percentile(0.99);
}
BENCHMARK(BM_ServeDuringUpdateStorm)->Arg(0)->Arg(1);

// --- multi-reactor HTTP sweep ------------------------------------------------

struct SweepRun {
  size_t reactors = 0;
  uint64_t requests = 0;
  double wall_s = 0.0;
  double req_per_s = 0.0;       // measured aggregate over the wall clock
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double balance = 0.0;         // min reactor share / fair share, 1.0 = even
  std::vector<uint64_t> reactor_requests;
  uint64_t body_copies = 0;     // hit-only run: must stay 0
  double capacity_req_per_s = 0.0;  // rate(1 reactor) * reactors * balance
};

// Drives one front end with `reactors` event loops using 8 keep-alive client
// threads (8 is a multiple of every swept reactor count, so round-robin
// dealing lands the same number of connections on each reactor) on a pure
// cache-hit page for `seconds`.
std::optional<SweepRun> RunSweep(size_t reactors, double seconds) {
  auto site_or = core::ServingSite::Create(BenchSite());
  if (!site_or.ok()) return std::nullopt;
  auto& site = *site_or.value();
  if (!site.PrefetchAll().ok()) return std::nullopt;

  server::FrontEndOptions options;
  options.http.reactors = reactors;
  server::HttpFrontEnd front(&site.page_server(), std::move(options));
  if (!front.Start().ok()) return std::nullopt;

  constexpr size_t kClients = 8;
  std::atomic<bool> stop{false};
  std::vector<Histogram> latencies(kClients);
  std::vector<uint64_t> counts(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      http::HttpClient client("127.0.0.1", front.port());
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        auto resp = client.Get("/day/2");
        const auto t1 = std::chrono::steady_clock::now();
        if (!resp.ok() || resp.value().status != 200) continue;
        latencies[c].Add(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++counts[c];
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  SweepRun run;
  run.reactors = reactors;
  run.wall_s = wall;
  Histogram merged;
  for (size_t c = 0; c < kClients; ++c) {
    run.requests += counts[c];
    merged.Merge(latencies[c]);
  }
  run.req_per_s = wall > 0 ? static_cast<double>(run.requests) / wall : 0.0;
  run.p50_ms = merged.Percentile(0.5);
  run.p99_ms = merged.Percentile(0.99);
  const auto http_stats = front.http_stats();
  run.body_copies = http_stats.body_copies;
  front.Stop();

  // Balance: the smallest reactor's share of the per-reactor request totals
  // against a perfectly even split.
  run.reactor_requests = front.reactor_requests();
  uint64_t total = 0, min_requests = UINT64_MAX;
  for (uint64_t r : run.reactor_requests) {
    total += r;
    min_requests = std::min(min_requests, r);
  }
  run.balance = (total > 0 && !run.reactor_requests.empty())
                    ? static_cast<double>(min_requests) *
                          static_cast<double>(run.reactor_requests.size()) /
                          static_cast<double>(total)
                    : 0.0;
  return run;
}

// Pulls "req_per_s": <x> out of the baseline JSON's entry for `reactors`.
// Minimal string scan — the file is our own machine-written artifact.
std::optional<double> BaselineRate(const std::string& path, size_t reactors) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string anchor = "\"reactors\": " + std::to_string(reactors) + ",";
  const size_t at = text.find(anchor);
  if (at == std::string::npos) return std::nullopt;
  const size_t rate = text.find("\"req_per_s\": ", at);
  if (rate == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + rate + std::strlen("\"req_per_s\": "),
                     nullptr);
}

int SweepMain(bool quick, const std::string& baseline_path) {
  bench::Header("THRPT", "multi-reactor HTTP serving sweep (cache hits)");
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<size_t> reactor_counts =
      quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};
  const double seconds = quick ? 0.5 : 1.5;
  bench::Row("hardware threads: %u, clients: 8, accept: round-robin, "
             "%.1f s per point%s",
             cores, seconds,
             cores < 4 ? "  (single-CPU host: wall-clock rates cannot scale "
                         "with reactors; aggregate capacity below is "
                         "rate(1) x reactors x measured balance)"
                       : "");

  std::vector<SweepRun> runs;
  double base_rate = 0.0;
  uint64_t hit_requests = 0, hit_copies = 0;
  for (const size_t reactors : reactor_counts) {
    auto run = RunSweep(reactors, seconds);
    if (!run) {
      std::fprintf(stderr, "sweep (reactors=%zu) failed\n", reactors);
      return 1;
    }
    if (reactors == 1) base_rate = run->req_per_s;
    run->capacity_req_per_s =
        base_rate * static_cast<double>(run->reactors) * run->balance;
    hit_requests += run->requests;
    hit_copies += run->body_copies;
    bench::Row("reactors=%zu  %8llu req  %9.0f req/s  p50=%.3f ms  "
               "p99=%.3f ms  balance=%.3f  capacity=%9.0f req/s  copies=%llu",
               run->reactors, static_cast<unsigned long long>(run->requests),
               run->req_per_s, run->p50_ms, run->p99_ms, run->balance,
               run->capacity_req_per_s,
               static_cast<unsigned long long>(run->body_copies));
    runs.push_back(*run);
  }

  // Scaling 1 -> 4 reactors. On a host with >= 4 cores the measured wall
  // rates carry the claim directly; below that, measured rates only show
  // the event loops time-slicing one core, so the capacity model (isolated
  // single-reactor rate x reactors x measured accept balance) is the
  // honest basis — and the balance factor is itself measured, not assumed.
  const bool measured_basis = cores >= 4;
  auto rate_at = [&](size_t reactors) -> double {
    for (const auto& r : runs) {
      if (r.reactors == reactors) {
        return measured_basis ? r.req_per_s : r.capacity_req_per_s;
      }
    }
    return 0.0;
  };
  const double scaling_1to4 =
      rate_at(1) > 0 ? rate_at(4) / rate_at(1) : 0.0;
  bench::Section("summary");
  bench::Compare("cache-hit scaling, 4 vs 1 reactors", 4.0, scaling_1to4,
                 measured_basis ? "x (measured, target >= 2.5x)"
                                : "x (capacity model, target >= 2.5x)");
  bench::CompareText("hit path copies bodies", "no",
                     hit_copies == 0 ? "no" : "yes");
  bench::Row("hit-only requests served: %llu, bodies copied: %llu",
             static_cast<unsigned long long>(hit_requests),
             static_cast<unsigned long long>(hit_copies));

  bool failed = false;
  if (hit_copies != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu response bodies were copied on a hit-only run\n",
                 static_cast<unsigned long long>(hit_copies));
    failed = true;
  }

  if (quick) {
    // Smoke gate: compare the single-reactor rate to the committed
    // baseline. 20% headroom absorbs machine noise; a real hot-path
    // regression (a reintroduced copy, a serialization slowdown) is
    // far larger than that.
    const auto baseline = BaselineRate(baseline_path, 1);
    if (!baseline) {
      bench::Row("no baseline at %s — skipping regression gate",
                 baseline_path.c_str());
    } else {
      const double floor = *baseline * 0.8;
      bench::Row("regression gate: measured %.0f req/s vs baseline %.0f "
                 "(floor %.0f)",
                 runs.front().req_per_s, *baseline, floor);
      if (runs.front().req_per_s < floor) {
        std::fprintf(stderr,
                     "FAIL: single-reactor rate %.0f req/s is more than 20%% "
                     "below the committed baseline %.0f req/s\n",
                     runs.front().req_per_s, *baseline);
        failed = true;
      }
    }
    return failed ? 1 : 0;
  }

  std::ofstream json("BENCH_throughput.json");
  json << "{\n"
       << "  \"bench\": \"throughput\",\n"
       << "  \"hardware_threads\": " << cores << ",\n"
       << "  \"clients\": 8,\n"
       << "  \"accept_mode\": \"round_robin\",\n"
       << "  \"scaling_basis\": \""
       << (measured_basis ? "measured" : "capacity_model") << "\",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& r = runs[i];
    json << "    {\"reactors\": " << r.reactors
         << ", \"requests\": " << r.requests
         << ", \"req_per_s\": " << r.req_per_s
         << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
         << ", \"balance\": " << r.balance
         << ", \"capacity_req_per_s\": " << r.capacity_req_per_s
         << ", \"body_copies\": " << r.body_copies
         << ", \"reactor_requests\": [";
    for (size_t k = 0; k < r.reactor_requests.size(); ++k) {
      json << r.reactor_requests[k]
           << (k + 1 < r.reactor_requests.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"scaling_1to4\": " << scaling_1to4 << ",\n"
       << "  \"hit_requests\": " << hit_requests << ",\n"
       << "  \"hit_body_copies\": " << hit_copies << ",\n"
       << "  \"zero_copy_hit_path\": " << (hit_copies == 0 ? "true" : "false")
       << "\n}\n";
  json.close();
  bench::Row("wrote BENCH_throughput.json");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline = "BENCH_throughput.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!quick) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return SweepMain(quick, baseline);
}
