// Stampede battery: N concurrent misses on one cold key must cost exactly
// one render, with every participant sharing the same ref-counted body (the
// medal-decided flash crowd). The renderer's per-object flight is the only
// coalescing; the serving path serves the stored object by reference. Also
// drills the failure edge: a renderer outage where the whole herd degrades
// to the same last-known-good stale copy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "core/serving_site.h"
#include "http/client.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"
#include "server/serving.h"

namespace nagano::server {
namespace {

using namespace std::chrono_literals;

// Blocks a generator until `followers` renders have joined its flight (the
// renderer counts a follower when it joins), so a herd test is
// deterministic: every other participant is provably waiting on this run.
void AwaitFollowers(const pagegen::PageRenderer& renderer, uint64_t followers) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (renderer.stats().renders_coalesced < followers &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
}

class StampedeTest : public ::testing::Test {
 protected:
  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  pagegen::PageRenderer renderer_{&graph_, &cache_};
};

// 64 threads race one cold key. The generator refuses to finish until every
// follower has joined its flight, so the test is deterministic: one render,
// 63 coalesced followers, 64 byte-identical bodies off one shared ref.
TEST_F(StampedeTest, SixtyFourConcurrentMissesOneRender) {
  constexpr int kThreads = 64;
  std::atomic<int> renders{0};
  renderer_.RegisterExact("/herd", [&](const pagegen::RenderRequest&) {
    renders.fetch_add(1);
    AwaitFollowers(renderer_, kThreads - 1);
    return Result<std::string>("the whole herd shares me");
  });

  DynamicPageServer program(&cache_, &renderer_);

  std::vector<ServeOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = program.Serve("/herd"); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(renders.load(), 1);
  const std::string* shared = nullptr;
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.cls, ServeClass::kCacheMissGenerated);
    EXPECT_EQ(out.body, "the whole herd shares me");
    ASSERT_NE(out.body_ref, nullptr);
    if (shared == nullptr) shared = out.body_ref.get();
    // Same control block, same bytes: the fan-out holds one copy.
    EXPECT_EQ(out.body_ref.get(), shared);
  }

  EXPECT_EQ(program.stats().cache_misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(renderer_.stats().renders_coalesced,
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(renderer_.stats().pages_rendered, 1u);
}

// The same herd through the production assembly: a ServingSite built from
// default SiteOptions. One generator run, and every outcome aliases the one
// cached object.
TEST(SiteStampedeTest, DefaultSiteHerdCostsOneRender) {
  constexpr int kThreads = 64;
  auto site_or = core::ServingSite::Create(core::SiteOptions());
  ASSERT_TRUE(site_or.ok()) << site_or.status().ToString();
  core::ServingSite& site = *site_or.value();
  pagegen::PageRenderer& renderer = site.renderer();
  const uint64_t coalesced_before = renderer.stats().renders_coalesced;

  std::atomic<int> renders{0};
  renderer.RegisterExact("/herd", [&](const pagegen::RenderRequest&) {
    renders.fetch_add(1);
    AwaitFollowers(renderer, coalesced_before + kThreads - 1);
    return Result<std::string>("one render for the site's herd");
  });

  std::vector<ServeOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { outcomes[i] = site.Serve("/herd"); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(renders.load(), 1);
  const auto cached = site.cache().Peek("/herd");
  ASSERT_NE(cached, nullptr);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.cls, ServeClass::kCacheMissGenerated);
    ASSERT_NE(out.body_ref, nullptr);
    EXPECT_EQ(out.body_ref.get(), &cached->body);
    EXPECT_EQ(*out.body_ref, "one render for the site's herd");
  }
  EXPECT_EQ(renderer.stats().renders_coalesced - coalesced_before,
            static_cast<uint64_t>(kThreads - 1));
}

// The same herd arriving over real sockets, at every reactor count. The
// render must run once, every client must read identical bytes, and the
// fan-out must never materialize a body into the write path
// (nagano_http_body_copies_total == 0).
TEST_F(StampedeTest, HttpFanOutAtOneTwoEightReactors) {
  std::atomic<int> renders{0};
  renderer_.RegisterPrefix("/storm/", [&](const pagegen::RenderRequest& req) {
    renders.fetch_add(1);
    std::this_thread::sleep_for(100ms);
    return Result<std::string>("storm page " + std::string(req.page));
  });
  DynamicPageServer program(&cache_, &renderer_);

  for (const size_t reactors : {size_t{1}, size_t{2}, size_t{8}}) {
    renders.store(0);
    const std::string path = "/storm/" + std::to_string(reactors);
    FrontEndOptions options;
    options.http.reactors = reactors;
    HttpFrontEnd front(&program, options);
    ASSERT_TRUE(front.Start().ok()) << "reactors=" << reactors;

    constexpr int kClients = 16;
    std::vector<std::string> bodies(kClients);
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        auto resp = http::HttpClient::FetchOnce("127.0.0.1", front.port(),
                                                path);
        if (resp.ok() && resp.value().status == 200) {
          ok.fetch_add(1);
          bodies[i] = std::move(resp.value().body);
        }
      });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(ok.load(), kClients) << "reactors=" << reactors;
    EXPECT_EQ(renders.load(), 1) << "reactors=" << reactors;
    for (const auto& body : bodies) {
      EXPECT_EQ(body, "storm page " + path) << "reactors=" << reactors;
    }
    EXPECT_EQ(front.http_stats().body_copies, 0u) << "reactors=" << reactors;
    front.Stop();
  }
}

// Renderer outage under a 64-request herd: the one failing render degrades
// the whole fan-out to the same last-known-good stale copy. Only the leader
// retries; a follower handed the leader's failure degrades at once, so the
// outage costs kGenerateAttempts generator runs however large the herd.
TEST_F(StampedeTest, HerdDegradesToSharedStaleCopyOnRendererFailure) {
  constexpr int kThreads = 64;
  cache::ObjectCache::Options cache_options;
  cache_options.retain_stale = true;
  cache::ObjectCache cache(cache_options);
  pagegen::PageRenderer renderer(&graph_, &cache);

  std::atomic<bool> fail{false};
  std::atomic<int> failed_runs{0};
  renderer.RegisterExact("/fragile", [&](const pagegen::RenderRequest&) {
    if (!fail.load()) return Result<std::string>("last known good");
    failed_runs.fetch_add(1);
    AwaitFollowers(renderer, kThreads - 1);
    return Result<std::string>(UnavailableError("renderer down"));
  });

  DynamicPageServer program(&cache, &renderer);

  // Prime the last-known-good copy, then invalidate it (retained stale).
  ASSERT_EQ(program.Serve("/fragile").cls, ServeClass::kCacheMissGenerated);
  ASSERT_TRUE(cache.Invalidate("/fragile"));
  fail.store(true);

  std::vector<ServeOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = program.Serve("/fragile"); });
  }
  for (auto& t : threads) t.join();

  const std::string* shared = nullptr;
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.cls, ServeClass::kDegradedStale);
    EXPECT_EQ(out.body, "last known good");
    EXPECT_FALSE(out.error.ok());
    ASSERT_NE(out.body_ref, nullptr);
    if (shared == nullptr) shared = out.body_ref.get();
    EXPECT_EQ(out.body_ref.get(), shared);
  }
  EXPECT_EQ(program.stats().stale_serves, static_cast<uint64_t>(kThreads));
  constexpr uint32_t kAttempts = DynamicPageServer::kGenerateAttempts;
  EXPECT_EQ(failed_runs.load(), static_cast<int>(kAttempts));
  EXPECT_EQ(program.stats().retries, static_cast<uint64_t>(kAttempts - 1));
  EXPECT_EQ(renderer.stats().renders_coalesced,
            static_cast<uint64_t>(kThreads - 1));
}

// Two pages share one hot fragment. A 64-thread miss herd split across
// both pages must cost exactly one fragment render (single-flight at
// fragment granularity), and both cached plans must pin the same fragment
// snapshot — the composed fan-out holds one copy of the hot bytes.
TEST_F(StampedeTest, SharedHotFragmentRendersOnceUnderSplitHerd) {
  constexpr int kThreads = 64;
  std::atomic<int> fragment_renders{0};
  renderer_.RegisterExact("frag:hot", [&](const pagegen::RenderRequest&) {
    fragment_renders.fetch_add(1);
    std::this_thread::sleep_for(50ms);
    return Result<std::string>("<hot>");
  });
  for (const std::string page : {"/alpha", "/beta"}) {
    renderer_.RegisterExact(page, [page](const pagegen::RenderRequest& req)
                                      -> Result<std::string> {
      auto hot = req.fragments("frag:hot");
      if (!hot.ok()) return hot;
      return "<" + page + ">" + hot.value() + "</>";
    });
  }
  DynamicPageServer program(&cache_, &renderer_);

  std::vector<ServeOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      outcomes[i] = program.Serve(i % 2 == 0 ? "/alpha" : "/beta",
                                  /*include_body=*/true);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(fragment_renders.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    const std::string expect = i % 2 == 0 ? "</alpha><hot></>"
                                          : "</beta><hot></>";
    EXPECT_EQ(outcomes[i].body, expect);
  }

  // Both plans alias one pinned snapshot of the fragment.
  const auto alpha = cache_.Peek("/alpha");
  const auto beta = cache_.Peek("/beta");
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  ASSERT_TRUE(alpha->is_plan());
  ASSERT_TRUE(beta->is_plan());
  const cache::CachedObject* snapshot = nullptr;
  for (const auto* plan : {&alpha->plan, &beta->plan}) {
    for (const auto& chunk : *plan) {
      if (!chunk.is_fragment()) continue;
      if (snapshot == nullptr) snapshot = chunk.source.get();
      EXPECT_EQ(chunk.source.get(), snapshot);
    }
  }
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot, cache_.Peek("frag:hot").get());
}

// The composed pages over real sockets at every reactor count: a cold herd
// per reactor configuration must still render the shared fragment exactly
// once, and serving composed responses must never copy body bytes into the
// write path (nagano_http_body_copies_total == 0) — the fragment chunks and
// static chunks splice into the socket queue by reference.
TEST_F(StampedeTest, ComposedFanOutZeroCopiesAtOneTwoEightReactors) {
  std::atomic<int> fragment_renders{0};
  renderer_.RegisterExact("frag:shared", [&](const pagegen::RenderRequest&) {
    fragment_renders.fetch_add(1);
    std::this_thread::sleep_for(20ms);
    return Result<std::string>("[shared fragment]");
  });
  for (const std::string page : {"/left", "/right"}) {
    renderer_.RegisterExact(page, [page](const pagegen::RenderRequest& req)
                                      -> Result<std::string> {
      auto hot = req.fragments("frag:shared");
      if (!hot.ok()) return hot;
      return "<" + page + ">" + hot.value() + "</>";
    });
  }
  DynamicPageServer program(&cache_, &renderer_);

  for (const size_t reactors : {size_t{1}, size_t{2}, size_t{8}}) {
    cache_.InvalidatePrefix("");
    fragment_renders.store(0);
    FrontEndOptions options;
    options.http.reactors = reactors;
    HttpFrontEnd front(&program, options);
    ASSERT_TRUE(front.Start().ok()) << "reactors=" << reactors;

    constexpr int kClients = 32;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        const std::string path = i % 2 == 0 ? "/left" : "/right";
        const std::string expect = "<" + path + ">[shared fragment]</>";
        auto resp =
            http::HttpClient::FetchOnce("127.0.0.1", front.port(), path);
        if (resp.ok() && resp.value().status == 200 &&
            resp.value().body == expect) {
          ok.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(ok.load(), kClients) << "reactors=" << reactors;
    EXPECT_EQ(fragment_renders.load(), 1) << "reactors=" << reactors;

    // A second, hit-only wave: every response is composed from the cached
    // plan and must leave the copy counter untouched.
    const uint64_t copies_after_herd = front.http_stats().body_copies;
    for (const std::string path : {"/left", "/right"}) {
      auto resp = http::HttpClient::FetchOnce("127.0.0.1", front.port(), path);
      ASSERT_TRUE(resp.ok()) << "reactors=" << reactors;
      EXPECT_EQ(resp.value().status, 200);
      EXPECT_EQ(resp.value().body, "<" + path + ">[shared fragment]</>");
    }
    EXPECT_EQ(front.http_stats().body_copies, copies_after_herd)
        << "reactors=" << reactors;
    EXPECT_EQ(front.http_stats().body_copies, 0u)
        << "reactors=" << reactors;
    front.Stop();
  }
}

}  // namespace
}  // namespace nagano::server
