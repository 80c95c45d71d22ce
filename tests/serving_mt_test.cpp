// Multi-reactor serving end to end: the assembled site (cache + renderer +
// DynamicPageServer) behind HttpFrontEnd at reactors 1 / 2 / 8 must give
// every client byte-identical pages, never copy a cache-hit body into the
// write path, and shut down cleanly; per-reactor fault-injection sites let
// a drill kill one event loop's sockets while its siblings keep serving.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/serving_site.h"
#include "http/client.h"

namespace nagano {
namespace {

core::SiteOptions SmallSite() {
  core::SiteOptions options;
  options.olympic.days = 4;
  options.olympic.num_sports = 3;
  options.olympic.events_per_sport = 4;
  options.olympic.athletes_per_event = 6;
  options.olympic.num_countries = 8;
  return options;
}

std::vector<std::string> ProbePages() {
  return {"/", "/day/1", "/day/2", "/sport/1", "/sport/2",
          "/event/1", "/event/2", "/medals", "/static/about"};
}

server::FrontEndOptions FrontEndWith(size_t reactors,
                                     std::string instance = {},
                                     fault::FaultInjector* faults = nullptr) {
  server::FrontEndOptions options;
  options.http.reactors = reactors;
  options.http.metrics.instance = std::move(instance);
  options.http.faults = faults;
  return options;
}

// Fetches every probe page over several keep-alive connections; returns
// path -> body.
std::map<std::string, std::string> FetchAll(uint16_t port) {
  std::map<std::string, std::string> bodies;
  for (int round = 0; round < 3; ++round) {
    http::HttpClient client("127.0.0.1", port);
    for (const auto& path : ProbePages()) {
      auto resp = client.Get(path);
      if (!resp.ok() || resp.value().status != 200) {
        ADD_FAILURE() << "GET " << path << " failed: "
                      << (resp.ok() ? std::to_string(resp.value().status)
                                    : resp.status().ToString());
        continue;
      }
      auto it = bodies.find(path);
      if (it == bodies.end()) {
        bodies.emplace(path, resp.value().body);
      } else {
        EXPECT_EQ(it->second, resp.value().body)
            << path << " changed between connections";
      }
    }
  }
  return bodies;
}

TEST(ServingMtTest, IdenticalResponsesAtEveryReactorCount) {
  auto site_or = core::ServingSite::Create(SmallSite());
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());
  site.page_server().AddStaticPage("/static/about", "about the games\n");

  std::map<std::string, std::string> reference;
  for (const size_t reactors : {size_t{1}, size_t{2}, size_t{8}}) {
    server::HttpFrontEnd front(
        &site.page_server(),
        FrontEndWith(reactors));
    ASSERT_TRUE(front.Start().ok()) << "reactors=" << reactors;
    const auto bodies = FetchAll(front.port());
    ASSERT_EQ(bodies.size(), ProbePages().size());
    if (reference.empty()) {
      reference = bodies;
    } else {
      EXPECT_EQ(bodies, reference)
          << "reactors=" << reactors << " diverged from single-reactor run";
    }
    // Cache hits and static pages travel by reference — a hit-dominated
    // run materializes no bodies (the one miss class here is none: the
    // site is prefetched).
    EXPECT_EQ(front.http_stats().body_copies, 0u) << "reactors=" << reactors;
    front.Stop();  // clean shutdown with connections torn down
    front.Stop();  // idempotent
  }
  EXPECT_FALSE(reference.empty());
  EXPECT_NE(reference.at("/day/1"), reference.at("/day/2"));
}

TEST(ServingMtTest, ConcurrentClientsAcrossReactors) {
  auto site_or = core::ServingSite::Create(SmallSite());
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());

  server::HttpFrontEnd front(&site.page_server(),
                             FrontEndWith(4));
  ASSERT_TRUE(front.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequests = 30;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      http::HttpClient client("127.0.0.1", front.port());
      const auto pages = ProbePages();
      for (int i = 0; i < kRequests; ++i) {
        auto resp = client.Get(pages[(c + i) % (pages.size() - 1)]);
        if (resp.ok() && resp.value().status == 200) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kRequests);

  // Every reactor took a share: 8 connections dealt round-robin over 4
  // reactors is exactly 2 connections (2 * kRequests requests) each.
  const auto per_reactor = front.reactor_requests();
  ASSERT_EQ(per_reactor.size(), 4u);
  for (uint64_t count : per_reactor) {
    EXPECT_EQ(count, 2u * kRequests);
  }
  EXPECT_EQ(front.http_stats().body_copies, 0u);
  front.Stop();
}

// Kill one reactor's accept path: connections dealt to it die, its siblings
// keep serving, and the drill is visible in the injector timeline.
TEST(ServingMtTest, SingleReactorAcceptKillLeavesSiblingsServing) {
  auto site_or = core::ServingSite::Create(SmallSite());
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());

  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultRule rule;
  rule.subsystem = "http";
  rule.site = "mt-drill/r0";  // only reactor 0's sockets
  rule.operation = "accept";
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan));

  server::HttpFrontEnd front(
      &site.page_server(),
      FrontEndWith(4, "mt-drill", &faults));
  ASSERT_TRUE(front.Start().ok());

  // Round-robin deals connection i to reactor i % 4: every 4th connection
  // dies at accept, the rest serve normally.
  int served = 0, killed = 0;
  for (int i = 0; i < 12; ++i) {
    auto resp = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/");
    if (resp.ok() && resp.value().status == 200) {
      ++served;
    } else {
      ++killed;
    }
  }
  EXPECT_EQ(killed, 3);
  EXPECT_EQ(served, 9);
  EXPECT_GE(faults.injected_total(), 3u);
  const auto per_reactor = front.reactor_requests();
  ASSERT_EQ(per_reactor.size(), 4u);
  EXPECT_EQ(per_reactor[0], 0u);  // the dead reactor never served
  front.Stop();
}

// read/write kills against one reactor close only that reactor's
// connections mid-flight.
TEST(ServingMtTest, SingleReactorReadAndWriteKills) {
  auto site_or = core::ServingSite::Create(SmallSite());
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());

  for (const char* operation : {"read", "write"}) {
    fault::FaultPlan plan;
    plan.seed = 43;
    fault::FaultRule rule;
    rule.subsystem = "http";
    rule.site = std::string("mt-drill-") + operation + "/r1";
    rule.operation = operation;
    plan.rules.push_back(rule);
    fault::FaultInjector faults(std::move(plan));

    server::HttpFrontEnd front(
        &site.page_server(),
        FrontEndWith(2, std::string("mt-drill-") + operation, &faults));
    ASSERT_TRUE(front.Start().ok()) << operation;

    int served = 0, killed = 0;
    for (int i = 0; i < 10; ++i) {
      auto resp = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/");
      if (resp.ok() && resp.value().status == 200) {
        ++served;
      } else {
        ++killed;
      }
    }
    // Reactor 0's half of the connections serve; reactor 1's die at the
    // injected socket operation.
    EXPECT_EQ(served, 5) << operation;
    EXPECT_EQ(killed, 5) << operation;
    EXPECT_GE(faults.injected_total(), 5u) << operation;
    front.Stop();
  }
}

// With reactors == 1 the fault site stays the bare instance name, so
// existing single-site drills keep firing (site-name back-compat).
TEST(ServingMtTest, SingleReactorKeepsLegacyFaultSite) {
  auto site_or = core::ServingSite::Create(SmallSite());
  ASSERT_TRUE(site_or.ok());
  auto& site = *site_or.value();
  ASSERT_TRUE(site.PrefetchAll().ok());

  fault::FaultPlan plan;
  plan.seed = 44;
  fault::FaultRule rule;
  rule.subsystem = "http";
  rule.site = "legacy-drill";  // no /r0 suffix
  rule.operation = "accept";
  rule.max_fires = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector faults(std::move(plan));

  server::HttpFrontEnd front(
      &site.page_server(),
      FrontEndWith(1, "legacy-drill", &faults));
  ASSERT_TRUE(front.Start().ok());
  auto first = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/");
  EXPECT_FALSE(first.ok());
  auto second = http::HttpClient::FetchOnce("127.0.0.1", front.port(), "/");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().status, 200);
  front.Stop();
}

}  // namespace
}  // namespace nagano
