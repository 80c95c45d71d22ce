#include <gtest/gtest.h>

#include <string>

#include "cache/object_cache.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"

namespace nagano::pagegen {
namespace {

class RendererTest : public ::testing::Test {
 protected:
  odg::ObjectDependenceGraph graph_;
  cache::ObjectCache cache_;
  PageRenderer renderer_{&graph_, &cache_};
};

TEST_F(RendererTest, NoGeneratorIsNotFound) {
  EXPECT_FALSE(renderer_.CanGenerate("/ghost"));
  const auto r = renderer_.RenderAndCache("/ghost");
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST_F(RendererTest, ExactGeneratorRendersAndCaches) {
  renderer_.RegisterExact("/medals", [](const RenderRequest&) {
    return Result<std::string>("medal table");
  });
  const auto body = renderer_.RenderAndCache("/medals");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body.value(), "medal table");
  ASSERT_TRUE(cache_.Contains("/medals"));
  EXPECT_EQ(cache_.Peek("/medals")->body, "medal table");
}

TEST_F(RendererTest, FlatRenderSharesTheCachedBytes) {
  // One body per flat render: the returned body aliases the stored
  // object's bytes rather than carrying a second copy.
  renderer_.RegisterExact("/flat", [](const RenderRequest&) {
    return Result<std::string>("flat page bytes");
  });
  const auto body = renderer_.RenderAndCache("/flat");
  ASSERT_TRUE(body.ok());
  const auto cached = cache_.Peek("/flat");
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(body.value().get(), &cached->body);
  EXPECT_EQ(body.value()->data(), cached->body.data());
}

TEST_F(RendererTest, RenderOnlyDoesNotCache) {
  renderer_.RegisterExact("/p", [](const RenderRequest&) {
    return Result<std::string>("x");
  });
  ASSERT_TRUE(renderer_.RenderOnly("/p").ok());
  EXPECT_FALSE(cache_.Contains("/p"));
}

TEST_F(RendererTest, PrefixRoutingLongestWins) {
  renderer_.RegisterPrefix("/a/", [](const RenderRequest&) {
    return Result<std::string>("short");
  });
  renderer_.RegisterPrefix("/a/b/", [](const RenderRequest&) {
    return Result<std::string>("long");
  });
  EXPECT_EQ(renderer_.RenderOnly("/a/b/c").value(), "long");
  EXPECT_EQ(renderer_.RenderOnly("/a/x").value(), "short");
}

TEST_F(RendererTest, ExactBeatsPrefix) {
  renderer_.RegisterPrefix("/a/", [](const RenderRequest&) {
    return Result<std::string>("prefix");
  });
  renderer_.RegisterExact("/a/special", [](const RenderRequest&) {
    return Result<std::string>("exact");
  });
  EXPECT_EQ(renderer_.RenderOnly("/a/special").value(), "exact");
}

TEST_F(RendererTest, DataDependenciesRecordedInGraph) {
  renderer_.RegisterExact("/event/1", [](const RenderRequest& req) {
    req.deps.DependsOnData("results:event:1");
    req.deps.DependsOnData("events:1");
    return Result<std::string>("body");
  });
  ASSERT_TRUE(renderer_.RenderAndCache("/event/1").ok());

  const auto page = graph_.Find("/event/1");
  const auto results = graph_.Find("results:event:1");
  const auto events = graph_.Find("events:1");
  ASSERT_NE(page, odg::kInvalidNode);
  ASSERT_NE(results, odg::kInvalidNode);
  ASSERT_NE(events, odg::kInvalidNode);
  EXPECT_TRUE(graph_.HasEdge(results, page));
  EXPECT_TRUE(graph_.HasEdge(events, page));
  EXPECT_EQ(graph_.kind(page), odg::NodeKind::kObject);
  EXPECT_EQ(graph_.kind(results), odg::NodeKind::kUnderlyingData);
}

TEST_F(RendererTest, WeightedDependenciesReachGraph) {
  renderer_.RegisterExact("/event/1", [](const RenderRequest& req) {
    req.deps.DependsOnData("results:event:1", 5.0);
    req.deps.DependsOnData("news:latest", 1.0);
    return Result<std::string>("body");
  });
  ASSERT_TRUE(renderer_.RenderAndCache("/event/1").ok());
  const auto page = graph_.Find("/event/1");
  const auto in = graph_.WithSnapshot(
      [page](const auto&, const auto& in_edges, const auto&) {
        return in_edges[page];
      });
  ASSERT_EQ(in.size(), 2u);
  double results_weight = 0, news_weight = 0;
  for (const auto& edge : in) {
    if (graph_.name(edge.to) == "results:event:1") results_weight = edge.weight;
    if (graph_.name(edge.to) == "news:latest") news_weight = edge.weight;
  }
  EXPECT_DOUBLE_EQ(results_weight, 5.0);
  EXPECT_DOUBLE_EQ(news_weight, 1.0);
  EXPECT_FALSE(graph_.IsSimple());  // custom weights
}

TEST_F(RendererTest, ReRenderReplacesDependencies) {
  // The ODG must track the *current* template structure: deps observed on
  // the latest render replace the previous ones.
  int round = 0;
  renderer_.RegisterExact("/p", [&round](const RenderRequest& req) {
    req.deps.DependsOnData(round == 0 ? "data:old" : "data:new");
    return Result<std::string>("v" + std::to_string(round));
  });
  ASSERT_TRUE(renderer_.RenderAndCache("/p").ok());
  round = 1;
  ASSERT_TRUE(renderer_.RenderAndCache("/p").ok());

  const auto page = graph_.Find("/p");
  EXPECT_FALSE(graph_.HasEdge(graph_.Find("data:old"), page));
  EXPECT_TRUE(graph_.HasEdge(graph_.Find("data:new"), page));
}

TEST_F(RendererTest, FragmentRenderedRecursivelyAndCached) {
  renderer_.RegisterExact("frag:box", [](const RenderRequest& req) {
    req.deps.DependsOnData("news:latest");
    return Result<std::string>("[box]");
  });
  renderer_.RegisterExact("/home", [](const RenderRequest& req) {
    auto frag = req.fragments("frag:box");
    if (!frag.ok()) return frag;
    return Result<std::string>("home " + frag.value());
  });

  const auto body = renderer_.RenderAndCache("/home");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body.value(), "home [box]");
  EXPECT_TRUE(cache_.Contains("frag:box"));  // fragment cached as a side effect

  const auto frag_node = graph_.Find("frag:box");
  const auto home_node = graph_.Find("/home");
  EXPECT_EQ(graph_.kind(frag_node), odg::NodeKind::kBoth);
  EXPECT_TRUE(graph_.HasEdge(frag_node, home_node));
  EXPECT_TRUE(graph_.HasEdge(graph_.Find("news:latest"), frag_node));
}

TEST_F(RendererTest, CachedFragmentSplicedWithoutRegeneration) {
  int fragment_renders = 0;
  renderer_.RegisterExact("frag:box", [&](const RenderRequest&) {
    ++fragment_renders;
    return Result<std::string>("[box]");
  });
  renderer_.RegisterExact("/home", [](const RenderRequest& req) {
    return req.fragments("frag:box");
  });
  ASSERT_TRUE(renderer_.RenderAndCache("/home").ok());
  ASSERT_TRUE(renderer_.RenderAndCache("/home").ok());
  EXPECT_EQ(fragment_renders, 1);  // second render hit the cache
  EXPECT_EQ(renderer_.stats().fragment_cache_hits, 1u);
}

TEST_F(RendererTest, IncludeCycleDetected) {
  renderer_.RegisterExact("frag:a", [](const RenderRequest& req) {
    return req.fragments("frag:b");
  });
  renderer_.RegisterExact("frag:b", [](const RenderRequest& req) {
    return req.fragments("frag:a");
  });
  const auto r = renderer_.RenderAndCache("frag:a");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RendererTest, GeneratorErrorPropagatesAndCounts) {
  renderer_.RegisterExact("/bad", [](const RenderRequest&) {
    return Result<std::string>(InternalError("boom"));
  });
  EXPECT_FALSE(renderer_.RenderAndCache("/bad").ok());
  EXPECT_FALSE(cache_.Contains("/bad"));
  EXPECT_EQ(renderer_.stats().generator_errors, 1u);
}

TEST_F(RendererTest, StatsCountRenders) {
  renderer_.RegisterExact("/p", [](const RenderRequest&) {
    return Result<std::string>("x");
  });
  ASSERT_TRUE(renderer_.RenderAndCache("/p").ok());
  ASSERT_TRUE(renderer_.RenderAndCache("/p").ok());
  EXPECT_EQ(renderer_.stats().pages_rendered, 2u);
}

}  // namespace
}  // namespace nagano::pagegen
