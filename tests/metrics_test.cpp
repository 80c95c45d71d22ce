#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "core/serving_site.h"
#include "http/client.h"
#include "server/serving.h"

namespace nagano::metrics {
namespace {

// --- registry cells -----------------------------------------------------------

TEST(MetricRegistryTest, GetOrCreateReturnsSameCell) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("nagano_test_total", {{"site", "x"}});
  Counter* b = registry.GetCounter("nagano_test_total", {{"site", "x"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.Snapshot().size(), 1u);
}

TEST(MetricRegistryTest, DifferentLabelsAreDifferentCells) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("nagano_test_total", {{"site", "x"}});
  Counter* b = registry.GetCounter("nagano_test_total", {{"site", "y"}});
  EXPECT_NE(a, b);
  a->Increment(3);
  b->Increment(5);
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 5u);
}

TEST(MetricRegistryTest, LabelOrderDoesNotSplitIdentity) {
  MetricRegistry registry;
  Counter* a =
      registry.GetCounter("nagano_test_total", {{"a", "1"}, {"b", "2"}});
  Counter* b =
      registry.GetCounter("nagano_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricRegistryTest, CellAddressesStableAcrossGrowth) {
  MetricRegistry registry;
  Counter* first = registry.GetCounter("nagano_first_total");
  for (int i = 0; i < 256; ++i) {
    registry.GetCounter("nagano_filler_total", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(first, registry.GetCounter("nagano_first_total"));
  first->Increment();
  EXPECT_EQ(first->value(), 1u);
}

TEST(MetricRegistryTest, CounterSumsAcrossThreads) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("nagano_threads_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("nagano_resident_bytes");
  g->Set(100.0);
  g->Add(-25.0);
  g->Add(5.0);
  EXPECT_DOUBLE_EQ(g->value(), 80.0);
}

TEST(MetricRegistryTest, HistogramObserveAndSnapshot) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("nagano_latency_ms");
  h->Observe(1.0);
  h->Observe(10.0);
  h->Observe(100.0);
  EXPECT_EQ(h->count(), 3u);
  const nagano::Histogram snap = h->snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50));
}

TEST(MetricRegistryTest, AutoInstanceNeverRepeats) {
  MetricRegistry registry;
  std::set<std::string> seen;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(seen.insert(registry.AutoInstance("cache")).second);
  }
  // A different prefix still draws from the same uniqueness pool.
  EXPECT_TRUE(seen.insert(registry.AutoInstance("trigger")).second);
}

TEST(MetricRegistryTest, ScopeResolveAutoAssignsWhenInstanceEmpty) {
  MetricRegistry registry;
  Options options;
  options.registry = &registry;
  const Scope a = Scope::Resolve(options, "cache");
  const Scope b = Scope::Resolve(options, "cache");
  ASSERT_EQ(a.labels.size(), 1u);
  EXPECT_EQ(a.labels[0].first, "site");
  EXPECT_NE(a.labels[0].second, b.labels[0].second);
  // Explicit instance is taken verbatim.
  options.instance = "master";
  const Scope c = Scope::Resolve(options, "cache");
  EXPECT_EQ(c.labels[0].second, "master");
}

TEST(MetricRegistryTest, ScopeWithAppendsLabel) {
  MetricRegistry registry;
  Options options;
  options.registry = &registry;
  options.instance = "master";
  const Scope scope = Scope::Resolve(options, "fabric");
  const Labels labels = scope.With("complex", "tokyo");
  Counter* c = registry.GetCounter("nagano_fabric_served_by_complex_total",
                                   labels, "per complex");
  c->Increment();
  // Same identity reachable directly.
  EXPECT_EQ(c, registry.GetCounter("nagano_fabric_served_by_complex_total",
                                   {{"site", "master"}, {"complex", "tokyo"}}));
}

// --- Prometheus exposition -----------------------------------------------------

// Every exposition line must be a comment ("# HELP ..."/"# TYPE ...") or a
// sample of the shape `name{labels} value`, and every sample must follow a
// TYPE comment for its family.
void CheckExpositionWellFormed(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::set<std::string> typed_families;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "summary")
          << line;
      typed_families.insert(family);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    // Sample line: metric name is [a-zA-Z_:][a-zA-Z0-9_:]*.
    size_t name_end = 0;
    while (name_end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[name_end])) ||
            line[name_end] == '_' || line[name_end] == ':')) {
      ++name_end;
    }
    ASSERT_GT(name_end, 0u) << line;
    const std::string name = line.substr(0, name_end);
    // The family (name minus _sum/_count summary suffixes) must be typed.
    std::string family = name;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed_families.count(family.substr(0, family.size() - s.size()))) {
        family = family.substr(0, family.size() - s.size());
      }
    }
    EXPECT_TRUE(typed_families.count(family)) << "untyped sample: " << line;
    // After the optional {labels} block there must be exactly a value.
    size_t value_start = name_end;
    if (value_start < line.size() && line[value_start] == '{') {
      const size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << line;
      value_start = close + 1;
    }
    ASSERT_LT(value_start, line.size()) << line;
    EXPECT_EQ(line[value_start], ' ') << line;
    const std::string value = line.substr(value_start + 1);
    EXPECT_FALSE(value.empty()) << line;
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
  }
}

TEST(PrometheusRenderTest, ExpositionIsWellFormed) {
  MetricRegistry registry;
  registry.GetCounter("nagano_requests_total", {{"site", "a"}}, "requests")
      ->Increment(7);
  registry.GetCounter("nagano_requests_total", {{"site", "b"}}, "requests")
      ->Increment(9);
  registry.GetGauge("nagano_cache_bytes", {{"site", "a"}}, "resident bytes")
      ->Set(4096);
  Histogram* h =
      registry.GetHistogram("nagano_latency_ms", {{"site", "a"}}, "latency");
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));

  const std::string text = registry.RenderPrometheus();
  CheckExpositionWellFormed(text);
  EXPECT_NE(text.find("# HELP nagano_requests_total requests"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nagano_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("nagano_requests_total{site=\"a\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nagano_cache_bytes gauge"), std::string::npos);
  // Histograms render as summaries: quantiles plus _sum and _count.
  EXPECT_NE(text.find("# TYPE nagano_latency_ms summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("nagano_latency_ms_count{site=\"a\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("nagano_latency_ms_sum{site=\"a\"} 5050"),
            std::string::npos);
}

TEST(PrometheusRenderTest, LabelValuesAreEscaped) {
  MetricRegistry registry;
  registry
      .GetCounter("nagano_escapes_total",
                  {{"path", "a\\b\"c\nd"}}, "escape check")
      ->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << text;
}

TEST(PrometheusRenderTest, StatuszGroupsBySubsystem) {
  MetricRegistry registry;
  registry.GetCounter("nagano_cache_hits_total", {{"site", "s"}})->Increment();
  registry.GetCounter("nagano_trigger_batches_total", {{"site", "s"}})
      ->Increment();
  const std::string text = registry.RenderStatusz();
  EXPECT_NE(text.find("cache"), std::string::npos);
  EXPECT_NE(text.find("trigger"), std::string::npos);
  EXPECT_NE(text.find("nagano_cache_hits_total"), std::string::npos);
}

// --- legacy stats() views over registry cells ----------------------------------

TEST(LegacyStatsViewTest, CacheStatsMatchesRegistryCells) {
  MetricRegistry registry;
  cache::ObjectCache::Options options;
  options.metrics.registry = &registry;
  options.metrics.instance = "view";
  cache::ObjectCache cache(options);

  cache.Put("/a", "body-a");
  cache.Put("/b", "body-b");
  (void)cache.Lookup("/a");    // hit
  (void)cache.Lookup("/nope");  // miss
  cache.Invalidate("/b");

  const auto stats = cache.stats();
  const Labels site{{"site", "view"}};
  EXPECT_EQ(stats.hits,
            registry.GetCounter("nagano_cache_hits_total", site)->value());
  EXPECT_EQ(stats.misses,
            registry.GetCounter("nagano_cache_misses_total", site)->value());
  EXPECT_EQ(stats.inserts,
            registry.GetCounter("nagano_cache_inserts_total", site)->value());
  EXPECT_EQ(
      stats.invalidations,
      registry.GetCounter("nagano_cache_invalidations_total", site)->value());
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("nagano_cache_entries", site)->value(), 1.0);
}

TEST(LegacyStatsViewTest, TwoCachesInOneRegistryNeverAlias) {
  MetricRegistry registry;
  cache::ObjectCache::Options options;
  options.metrics.registry = &registry;
  cache::ObjectCache first(options);
  cache::ObjectCache second(options);
  first.Put("/a", "x");
  (void)first.Lookup("/a");
  EXPECT_EQ(first.stats().hits, 1u);
  EXPECT_EQ(second.stats().hits, 0u);
  EXPECT_EQ(second.stats().entries, 0u);
}

// --- admin surface over a real socket ------------------------------------------

TEST(AdminEndpointTest, MetricsHealthzStatuszOverHttp) {
  MetricRegistry registry;
  core::SiteOptions options;
  options.olympic.days = 2;
  options.olympic.num_sports = 2;
  options.olympic.events_per_sport = 2;
  options.olympic.athletes_per_event = 4;
  options.olympic.num_countries = 4;
  options.olympic.initial_news_articles = 2;
  options.metrics.registry = &registry;
  options.metrics.instance = "e2e";
  auto site_or = core::ServingSite::Create(std::move(options));
  ASSERT_TRUE(site_or.ok()) << site_or.status().ToString();
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.StartTrigger();

  server::FrontEndOptions front_options;
  front_options.http.metrics.registry = &registry;
  front_options.http.metrics.instance = "e2e";
  server::HttpFrontEnd front(&site.page_server(), std::move(front_options));
  front.EnableAdmin(&registry, [&site] { return site.Health(); });
  ASSERT_TRUE(front.Start().ok());
  http::HttpClient client("127.0.0.1", front.port());

  // A feed day: commit results, then quiesce so the DUP pipeline has
  // stamped commit -> cache-visible latencies.
  ASSERT_TRUE(site.RecordResult(1, 1, 1, 9.8).ok());
  ASSERT_TRUE(site.RecordResult(1, 2, 2, 9.1).ok());
  ASSERT_TRUE(site.RecordResult(1, 3, 3, 8.7).ok());
  ASSERT_TRUE(site.CompleteEvent(1).ok());
  site.Quiesce();
  (void)client.Get("/medals");  // drive the serving path once

  auto metrics_resp = client.Get("/metrics");
  ASSERT_TRUE(metrics_resp.ok());
  EXPECT_EQ(metrics_resp.value().status, 200);
  EXPECT_EQ(metrics_resp.value().headers.at("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = metrics_resp.value().body;
  CheckExpositionWellFormed(body);
  // At least one family from every layer of Fig. 6.
  for (const char* family :
       {"nagano_cache_hits_total", "nagano_trigger_batches_total",
        "nagano_renderer_pages_rendered_total", "nagano_serve_cache_hits_total",
        "nagano_http_requests_total", "nagano_db_commits_total",
        "nagano_odg_nodes"}) {
    EXPECT_NE(body.find(family), std::string::npos) << family;
  }
  // The tentpole measurement: commit -> cache-visible latency was observed.
  const size_t count_pos =
      body.find("nagano_dup_propagation_latency_ms_count{site=\"e2e\"} ");
  ASSERT_NE(count_pos, std::string::npos);
  const std::string count_str =
      body.substr(body.find(' ', count_pos + 40) + 1);
  EXPECT_GT(std::stoull(count_str), 0u);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  auto statusz = client.Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz.value().status, 200);
  EXPECT_NE(statusz.value().body.find("nagano_cache_hits_total"),
            std::string::npos);

  // HEAD on an admin path carries headers but no body.
  http::HttpRequest head;
  head.method = "HEAD";
  head.target = "/metrics";
  auto head_resp = client.Roundtrip(head);
  ASSERT_TRUE(head_resp.ok());
  EXPECT_EQ(head_resp.value().status, 200);
  EXPECT_TRUE(head_resp.value().body.empty());

  front.Stop();
  site.StopTrigger();
}

TEST(AdminEndpointTest, HealthzReports503WithProblems) {
  MetricRegistry registry;
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache cache;
  pagegen::PageRenderer renderer(&graph, &cache);
  server::DynamicPageServer program(&cache, &renderer);
  server::HttpFrontEnd front(&program, {});
  front.EnableAdmin(&registry, [] {
    server::HealthReport report;
    report.ok = false;
    report.problems = {"trigger monitor not running", "cache empty"};
    return report;
  });
  ASSERT_TRUE(front.Start().ok());
  auto resp = http::HttpClient::FetchOnce("127.0.0.1", front.port(),
                                          "/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 503);
  EXPECT_NE(resp.value().body.find("trigger monitor not running"),
            std::string::npos);
  EXPECT_NE(resp.value().body.find("cache empty"), std::string::npos);
  front.Stop();
}

TEST(AdminEndpointTest, AdminPathsUntouchedWithoutEnableAdmin) {
  odg::ObjectDependenceGraph graph;
  cache::ObjectCache cache;
  pagegen::PageRenderer renderer(&graph, &cache);
  server::DynamicPageServer program(&cache, &renderer);
  server::HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());
  auto resp =
      http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/metrics");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 404);  // plain page miss, not an admin page
  front.Stop();
}

}  // namespace
}  // namespace nagano::metrics
