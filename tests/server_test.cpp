#include <gtest/gtest.h>

#include <string>

#include "cache/object_cache.h"
#include "http/client.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"
#include "server/serving.h"

namespace nagano::server {
namespace {

class ServerProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    renderer_.RegisterExact("/dyn", [this](const pagegen::RenderRequest&) {
      ++renders_;
      return Result<std::string>("dynamic body v" + std::to_string(renders_));
    });
    // Fails with a transient error on its first flaky_failures_ calls.
    renderer_.RegisterExact("/flaky", [this](const pagegen::RenderRequest&) {
      if (++flaky_calls_ <= flaky_failures_) {
        return Result<std::string>(UnavailableError("backend down"));
      }
      return Result<std::string>("flaky body");
    });
  }

  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  pagegen::PageRenderer renderer_{&graph_, &cache_};
  int renders_ = 0;
  int flaky_calls_ = 0;
  int flaky_failures_ = 0;
};

TEST_F(ServerProgramTest, StaticPageServed) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");
  const auto out = program.Serve("/about");
  EXPECT_EQ(out.cls, ServeClass::kStatic);
  EXPECT_EQ(out.body, "static content");
  EXPECT_EQ(out.cpu_cost, program.costs().static_page);
  EXPECT_EQ(program.stats().static_hits, 1u);
}

TEST_F(ServerProgramTest, FirstDynamicRequestGeneratesThenCaches) {
  DynamicPageServer program(&cache_, &renderer_);
  const auto miss = program.Serve("/dyn");
  EXPECT_EQ(miss.cls, ServeClass::kCacheMissGenerated);
  EXPECT_EQ(miss.cpu_cost, program.costs().generate_dynamic);
  EXPECT_EQ(miss.body, "dynamic body v1");

  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cls, ServeClass::kCacheHit);
  EXPECT_EQ(hit.cpu_cost, program.costs().cached_dynamic);
  EXPECT_EQ(hit.body, "dynamic body v1");  // cached copy, not regenerated
  EXPECT_EQ(renders_, 1);

  const auto stats = program.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 0.5);
}

TEST_F(ServerProgramTest, CachedDynamicCostsLikeStatic) {
  // §2: "Cached dynamic pages can be served ... at roughly the same rates
  // as static pages."
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cpu_cost, program.costs().cached_dynamic);
  EXPECT_LE(hit.cpu_cost, 2 * program.costs().static_page);
  // And an uncached dynamic page costs orders of magnitude more.
  EXPECT_GE(program.costs().generate_dynamic, 50 * program.costs().static_page);
}

TEST_F(ServerProgramTest, NotFound) {
  DynamicPageServer program(&cache_, &renderer_);
  const auto out = program.Serve("/ghost");
  EXPECT_EQ(out.cls, ServeClass::kNotFound);
  EXPECT_EQ(program.stats().not_found, 1u);
}

// A transient failure is retried at once; the last allowed attempt still
// turns the miss into a cached page.
TEST_F(ServerProgramTest, TransientFailureRetriedUpToAttemptConstant) {
  constexpr int kAttempts = DynamicPageServer::kGenerateAttempts;
  flaky_failures_ = kAttempts - 1;
  DynamicPageServer program(&cache_, &renderer_);
  const auto out = program.Serve("/flaky");
  EXPECT_EQ(out.cls, ServeClass::kCacheMissGenerated);
  EXPECT_EQ(out.body, "flaky body");
  EXPECT_EQ(out.retries, static_cast<uint32_t>(kAttempts - 1));
  EXPECT_EQ(flaky_calls_, kAttempts);
  EXPECT_TRUE(cache_.Contains("/flaky"));
  EXPECT_EQ(program.stats().retries, static_cast<uint64_t>(kAttempts - 1));
}

TEST_F(ServerProgramTest, SkipBodyOnSimPath) {
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  const auto out = program.Serve("/dyn", /*include_body=*/false);
  EXPECT_EQ(out.cls, ServeClass::kCacheHit);
  EXPECT_TRUE(out.body.empty());
  EXPECT_GT(out.bytes, 0u);
}

TEST_F(ServerProgramTest, TriggerUpdatedPageServedWithoutRegeneration) {
  // Update-in-place externally (as the trigger monitor does); the server
  // program serves the fresh copy as a plain hit.
  DynamicPageServer program(&cache_, &renderer_);
  program.Serve("/dyn");
  cache_.Put("/dyn", "externally refreshed");
  const auto hit = program.Serve("/dyn");
  EXPECT_EQ(hit.cls, ServeClass::kCacheHit);
  EXPECT_EQ(hit.body, "externally refreshed");
  EXPECT_EQ(renders_, 1);
}

// --- HTTP front end -------------------------------------------------------------

TEST_F(ServerProgramTest, HttpFrontEndServes) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");

  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  auto resp =
      http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/about");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "static content");
  EXPECT_EQ(resp.value().headers.at("X-Cache"), "STATIC");

  auto dyn = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/dyn");
  ASSERT_TRUE(dyn.ok());
  EXPECT_EQ(dyn.value().headers.at("X-Cache"), "MISS");

  auto dyn2 = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/dyn");
  ASSERT_TRUE(dyn2.ok());
  EXPECT_EQ(dyn2.value().headers.at("X-Cache"), "HIT");
  EXPECT_EQ(dyn2.value().body, "dynamic body v1");

  auto missing =
      http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/ghost");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  front.Stop();
}

TEST_F(ServerProgramTest, HttpFrontEndRejectsNonGet) {
  DynamicPageServer program(&cache_, &renderer_);
  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  http::HttpClient client("127.0.0.1", front.port());
  http::HttpRequest req;
  req.method = "DELETE";
  req.target = "/dyn";
  auto resp = client.Roundtrip(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 405);
  front.Stop();
}

TEST_F(ServerProgramTest, HttpFrontEndHeadOmitsBody) {
  DynamicPageServer program(&cache_, &renderer_);
  program.AddStaticPage("/about", "static content");
  HttpFrontEnd front(&program, {});
  ASSERT_TRUE(front.Start().ok());

  http::HttpClient client("127.0.0.1", front.port());
  http::HttpRequest req;
  req.method = "HEAD";
  req.target = "/about";
  auto resp = client.Roundtrip(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_TRUE(resp.value().body.empty());
  front.Stop();
}

}  // namespace
}  // namespace nagano::server
