// Property suites for DUP over randomized graphs: the affected set must
// equal plain reachability (threshold 0), the simple fast path must agree
// with the general algorithm, and the emitted order must respect
// dependencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/object_cache.h"
#include "common/rng.h"
#include "db/database.h"
#include "odg/dup.h"
#include "odg/graph.h"
#include "pagegen/renderer.h"
#include "trigger/trigger_monitor.h"
#include "db_rows.h"

namespace nagano::odg {
namespace {

struct RandomGraphSpec {
  uint64_t seed;
  int data_nodes;
  int both_nodes;
  int object_nodes;
  double edge_prob;
  bool allow_cycles;
};

// Builds a random layered graph: data -> both -> both -> object, plus
// optional back-edges among the "both" layer to create cycles.
struct BuiltGraph {
  std::vector<NodeId> data, both, objects;
};

BuiltGraph BuildRandom(ObjectDependenceGraph& g, const RandomGraphSpec& spec) {
  Rng rng(spec.seed);
  BuiltGraph built;
  for (int i = 0; i < spec.data_nodes; ++i) {
    built.data.push_back(
        g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData));
  }
  for (int i = 0; i < spec.both_nodes; ++i) {
    built.both.push_back(
        g.EnsureNode("b" + std::to_string(i), NodeKind::kBoth));
  }
  for (int i = 0; i < spec.object_nodes; ++i) {
    built.objects.push_back(
        g.EnsureNode("o" + std::to_string(i), NodeKind::kObject));
  }
  for (const NodeId d : built.data) {
    for (const NodeId b : built.both) {
      if (rng.NextBool(spec.edge_prob)) (void)g.AddDependence(d, b);
    }
    for (const NodeId o : built.objects) {
      if (rng.NextBool(spec.edge_prob / 2)) (void)g.AddDependence(d, o);
    }
  }
  for (size_t i = 0; i < built.both.size(); ++i) {
    for (size_t j = 0; j < built.both.size(); ++j) {
      if (i == j) continue;
      const bool forward = j > i;
      if ((forward || spec.allow_cycles) && rng.NextBool(spec.edge_prob / 2)) {
        (void)g.AddDependence(built.both[i], built.both[j]);
      }
    }
    for (const NodeId o : built.objects) {
      if (rng.NextBool(spec.edge_prob)) {
        (void)g.AddDependence(built.both[i], o);
      }
    }
  }
  return built;
}

// The graph's out-adjacency, copied out from under its read lock.
std::vector<std::vector<Edge>> OutAdjacency(const ObjectDependenceGraph& g) {
  return g.WithSnapshot(
      [](const auto& out, const auto&, const auto&) { return out; });
}

// Reference reachability by BFS over the out-edges.
std::set<NodeId> Reachable(const ObjectDependenceGraph& g,
                           const std::vector<NodeId>& from) {
  const auto out = OutAdjacency(g);
  std::set<NodeId> seen(from.begin(), from.end());
  std::vector<NodeId> frontier = from;
  while (!frontier.empty()) {
    const NodeId v = frontier.back();
    frontier.pop_back();
    for (const Edge& e : out[v]) {
      if (seen.insert(e.to).second) frontier.push_back(e.to);
    }
  }
  return seen;
}

class DupRandomGraphTest : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(DupRandomGraphTest, AffectedEqualsReachability) {
  const RandomGraphSpec spec = GetParam();
  ObjectDependenceGraph g;
  const BuiltGraph built = BuildRandom(g, spec);

  Rng rng(spec.seed ^ 0xabcdef);
  // Several random change sets per graph.
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<NodeId> changed;
    for (const NodeId d : built.data) {
      if (rng.NextBool(0.3)) changed.push_back(d);
    }
    if (changed.empty()) changed.push_back(built.data[0]);

    const auto result = DupEngine::ComputeAffected(g, changed);
    const auto reachable = Reachable(g, changed);

    std::set<NodeId> expected;
    for (const NodeId v : reachable) {
      const bool is_changed =
          std::find(changed.begin(), changed.end(), v) != changed.end();
      if (is_changed) continue;
      const NodeKind k = g.kind(v);
      if (k == NodeKind::kObject || k == NodeKind::kBoth) expected.insert(v);
    }

    std::set<NodeId> actual;
    for (const auto& a : result.affected) {
      EXPECT_GT(a.obsolescence, 0.0);
      EXPECT_LE(a.obsolescence, 1.0);
      EXPECT_TRUE(actual.insert(a.id).second) << "duplicate in affected set";
    }
    EXPECT_EQ(actual, expected) << "trial " << trial;
    EXPECT_EQ(result.visited, reachable.size());
  }
}

TEST_P(DupRandomGraphTest, OrderRespectsDependencies) {
  const RandomGraphSpec spec = GetParam();
  ObjectDependenceGraph g;
  const BuiltGraph built = BuildRandom(g, spec);

  std::vector<NodeId> changed(built.data.begin(), built.data.end());
  const auto result = DupEngine::ComputeAffected(g, changed);

  std::map<NodeId, size_t> position;
  for (size_t i = 0; i < result.affected.size(); ++i) {
    position[result.affected[i].id] = i;
  }
  // For every edge u -> v with both endpoints in the affected set and not
  // in the same SCC, u must come first. (Same-SCC pairs have no defined
  // order.) We approximate "same SCC" by mutual reachability.
  const auto out = OutAdjacency(g);
  for (const auto& [u, pu] : position) {
    for (const Edge& e : out[u]) {
      auto it = position.find(e.to);
      if (it == position.end()) continue;
      const auto back = Reachable(g, {e.to});
      if (back.count(u)) continue;  // cycle: unordered
      EXPECT_LT(pu, it->second)
          << g.name(u) << " must precede " << g.name(e.to);
    }
  }
}

TEST_P(DupRandomGraphTest, Deterministic) {
  const RandomGraphSpec spec = GetParam();
  ObjectDependenceGraph g1, g2;
  BuildRandom(g1, spec);
  BuildRandom(g2, spec);
  std::vector<NodeId> changed = {0};
  const auto r1 = DupEngine::ComputeAffected(g1, changed);
  const auto r2 = DupEngine::ComputeAffected(g2, changed);
  ASSERT_EQ(r1.affected.size(), r2.affected.size());
  for (size_t i = 0; i < r1.affected.size(); ++i) {
    EXPECT_EQ(r1.affected[i].id, r2.affected[i].id);
    EXPECT_DOUBLE_EQ(r1.affected[i].obsolescence, r2.affected[i].obsolescence);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DupRandomGraphTest,
    ::testing::Values(
        RandomGraphSpec{1, 5, 5, 10, 0.3, false},
        RandomGraphSpec{2, 10, 10, 30, 0.2, false},
        RandomGraphSpec{3, 20, 15, 50, 0.1, false},
        RandomGraphSpec{4, 5, 8, 10, 0.4, true},
        RandomGraphSpec{5, 15, 20, 40, 0.15, true},
        RandomGraphSpec{6, 30, 25, 80, 0.08, true},
        RandomGraphSpec{7, 2, 2, 4, 0.8, true},
        RandomGraphSpec{8, 50, 0, 200, 0.05, false},
        RandomGraphSpec{9, 1, 30, 1, 0.3, true},
        RandomGraphSpec{10, 40, 40, 120, 0.04, true}));

// --- simple vs general agreement on bipartite graphs -----------------------------

class DupSimpleAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DupSimpleAgreementTest, FastPathMatchesGeneral) {
  Rng rng(GetParam());
  ObjectDependenceGraph g;
  std::vector<NodeId> data, objects;
  for (int i = 0; i < 20; ++i) {
    data.push_back(
        g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData));
  }
  for (int i = 0; i < 60; ++i) {
    objects.push_back(
        g.EnsureNode("o" + std::to_string(i), NodeKind::kObject));
  }
  for (const NodeId d : data) {
    for (const NodeId o : objects) {
      if (rng.NextBool(0.15)) (void)g.AddDependence(d, o);
    }
  }
  ASSERT_TRUE(g.IsSimple());

  std::vector<NodeId> changed;
  for (const NodeId d : data) {
    if (rng.NextBool(0.4)) changed.push_back(d);
  }
  DupOptions fast, slow;
  fast.enable_simple_fast_path = true;
  slow.enable_simple_fast_path = false;
  const auto rf = DupEngine::ComputeAffected(g, changed, fast);
  const auto rs = DupEngine::ComputeAffected(g, changed, slow);
  EXPECT_TRUE(rf.used_simple_path);
  EXPECT_FALSE(rs.used_simple_path);

  std::set<NodeId> sf, ss;
  for (const auto& a : rf.affected) sf.insert(a.id);
  for (const auto& a : rs.affected) ss.insert(a.id);
  EXPECT_EQ(sf, ss);
  // The fast path reports full obsolescence; the general path reports the
  // changed fraction of each object's inputs. Both exceed any 0 threshold.
  for (const auto& a : rf.affected) EXPECT_DOUBLE_EQ(a.obsolescence, 1.0);
  for (const auto& a : rs.affected) EXPECT_GT(a.obsolescence, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DupSimpleAgreementTest,
                         ::testing::Range<uint64_t>(100, 110));

// --- differential: closure-scoped DUP vs the whole-graph reference ---------
//
// ReferenceDup is the whole-graph formulation of DUP: every array sized to
// the graph, Tarjan rooted at every reachable vertex in NodeId order. The
// closure-scoped engine must reproduce its output exactly — same affected
// order, obsolescence, closure and visited count.

DupResult ReferenceDup(const ObjectDependenceGraph& graph,
                       const std::vector<NodeId>& changed) {
  return graph.WithSnapshot([&](const std::vector<std::vector<Edge>>& out,
                                const std::vector<std::vector<Edge>>& in,
                                const std::vector<NodeKind>& kinds) {
    DupResult result;
    const size_t n = kinds.size();
    std::vector<char> is_changed(n, 0), reachable(n, 0);
    std::vector<NodeId> frontier;
    for (NodeId c : changed) {
      if (c < n && !is_changed[c]) {
        is_changed[c] = reachable[c] = 1;
        frontier.push_back(c);
      }
    }
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      for (const Edge& e : out[v]) {
        if (!reachable[e.to]) {
          reachable[e.to] = 1;
          frontier.push_back(e.to);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (reachable[v]) result.obsolete.push_back(v);
    }
    result.visited = result.obsolete.size();

    // Recursive Tarjan (test graphs are small).
    constexpr uint32_t kNone = UINT32_MAX;
    std::vector<uint32_t> index(n, kNone), low(n, 0), comp(n, kNone);
    std::vector<char> on_stack(n, 0);
    std::vector<NodeId> stack;
    uint32_t next_index = 0, next_comp = 0;
    std::function<void(NodeId)> visit = [&](NodeId v) {
      index[v] = low[v] = next_index++;
      stack.push_back(v);
      on_stack[v] = 1;
      for (const Edge& e : out[v]) {
        if (index[e.to] == kNone) {
          visit(e.to);
          low[v] = std::min(low[v], low[e.to]);
        } else if (on_stack[e.to]) {
          low[v] = std::min(low[v], index[e.to]);
        }
      }
      if (low[v] != index[v]) return;
      for (;;) {
        const NodeId w = stack.back();
        stack.pop_back();
        on_stack[w] = 0;
        comp[w] = next_comp;
        if (w == v) break;
      }
      ++next_comp;
    };
    for (NodeId v = 0; v < n; ++v) {
      if (reachable[v] && index[v] == kNone) visit(v);
    }

    std::vector<std::vector<NodeId>> members(next_comp);
    for (NodeId v = 0; v < n; ++v) {
      if (reachable[v]) members[comp[v]].push_back(v);
    }
    std::vector<double> obs(n, 0.0);
    for (uint32_t ci = next_comp; ci-- > 0;) {
      double score = 0.0;
      for (const NodeId v : members[ci]) {
        if (is_changed[v]) {
          score = 1.0;
          break;
        }
        double total_in = 0.0, changed_in = 0.0;
        for (const Edge& e : in[v]) {
          total_in += e.weight;
          if (reachable[e.to] && comp[e.to] != ci) {
            changed_in += e.weight * obs[e.to];
          }
        }
        if (total_in > 0.0) {
          score = std::max(score, std::min(1.0, changed_in / total_in));
        }
      }
      for (const NodeId v : members[ci]) obs[v] = score;
    }
    for (uint32_t ci = next_comp; ci-- > 0;) {
      for (const NodeId v : members[ci]) {
        const bool cacheable =
            kinds[v] == NodeKind::kObject || kinds[v] == NodeKind::kBoth;
        if (!is_changed[v] && cacheable && obs[v] > 0.0) {
          result.affected.push_back(AffectedObject{v, obs[v]});
        }
      }
    }
    return result;
  });
}

void ExpectSameDup(const DupResult& want, const DupResult& got,
                   const std::string& where) {
  ASSERT_EQ(got.affected.size(), want.affected.size()) << where;
  for (size_t i = 0; i < want.affected.size(); ++i) {
    EXPECT_EQ(got.affected[i].id, want.affected[i].id) << where << " #" << i;
    EXPECT_EQ(got.affected[i].obsolescence, want.affected[i].obsolescence)
        << where << " #" << i;
  }
  EXPECT_EQ(got.obsolete, want.obsolete) << where;
  EXPECT_EQ(got.visited, want.visited) << where;
}

// Adds `count` vertices of random kinds and random weighted edges (cycles
// included) touching them, to a graph that may already hold vertices.
void GrowRandomWeighted(ObjectDependenceGraph& g, Rng& rng, int count,
                        int edges_per_node) {
  const size_t first = g.node_count();
  for (int i = 0; i < count; ++i) {
    const NodeKind kind = static_cast<NodeKind>(rng.NextBelow(3));
    g.EnsureNode("w" + std::to_string(first + size_t(i)), kind);
  }
  const size_t n = g.node_count();
  for (size_t v = first; v < n; ++v) {
    for (int k = 0; k < edges_per_node; ++k) {
      const auto u = static_cast<NodeId>(rng.NextBelow(n));
      const double weight = 1.0 + double(rng.NextBelow(5));
      if (rng.NextBool(0.5)) {
        (void)g.AddDependence(static_cast<NodeId>(v), u, weight);
      } else {
        (void)g.AddDependence(u, static_cast<NodeId>(v), weight);
      }
    }
  }
}

std::vector<NodeId> RandomChangeSet(Rng& rng, size_t n) {
  std::vector<NodeId> changed;
  const size_t count = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < count; ++i) {
    changed.push_back(static_cast<NodeId>(rng.NextBelow(n)));
  }
  if (rng.NextBool(0.3)) changed.push_back(changed.front());  // duplicate
  return changed;
}

class DupDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DupDifferentialTest, MatchesWholeGraphReference) {
  Rng rng(GetParam());
  ObjectDependenceGraph g;
  GrowRandomWeighted(g, rng, 60, 2);
  DupOptions general;
  general.enable_simple_fast_path = false;
  for (int trial = 0; trial < 40; ++trial) {
    const auto changed = RandomChangeSet(rng, g.node_count());
    ExpectSameDup(ReferenceDup(g, changed),
                  DupEngine::ComputeAffected(g, changed, general),
                  "trial " + std::to_string(trial));
  }
}

TEST_P(DupDifferentialTest, GraphGrowsBetweenCalls) {
  // The closure scratch persists per thread; vertices added after a call
  // must still be mapped (the scratch resizes) and old stamps must not leak
  // into the next closure.
  Rng rng(GetParam() ^ 0x5eed);
  ObjectDependenceGraph g;
  GrowRandomWeighted(g, rng, 8, 2);
  DupOptions general;
  general.enable_simple_fast_path = false;
  for (int round = 0; round < 12; ++round) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto changed = RandomChangeSet(rng, g.node_count());
      ExpectSameDup(ReferenceDup(g, changed),
                    DupEngine::ComputeAffected(g, changed, general),
                    "round " + std::to_string(round));
    }
    GrowRandomWeighted(g, rng, 10 * (round + 1), 2);
  }
}

TEST_P(DupDifferentialTest, ConcurrentCallersAgree) {
  Rng rng(GetParam() ^ 0xc0ffee);
  ObjectDependenceGraph g;
  GrowRandomWeighted(g, rng, 120, 2);
  DupOptions general;
  general.enable_simple_fast_path = false;
  std::vector<std::vector<NodeId>> change_sets;
  std::vector<DupResult> expected;
  for (int i = 0; i < 16; ++i) {
    change_sets.push_back(RandomChangeSet(rng, g.node_count()));
    expected.push_back(ReferenceDup(g, change_sets.back()));
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 200; ++iter) {
        const size_t i = static_cast<size_t>(iter + t) % change_sets.size();
        const DupResult got =
            DupEngine::ComputeAffected(g, change_sets[i], general);
        bool same = got.obsolete == expected[i].obsolete &&
                    got.affected.size() == expected[i].affected.size();
        for (size_t a = 0; same && a < got.affected.size(); ++a) {
          same = got.affected[a].id == expected[i].affected[a].id &&
                 got.affected[a].obsolescence ==
                     expected[i].affected[a].obsolescence;
        }
        if (!same) ++mismatches[size_t(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[size_t(t)], 0) << "thread " << t;
  }
}

TEST(DupDifferentialSimpleTest, FastPathClosureMatchesReference) {
  // On a bipartite graph the fast path's closure, visited count and
  // affected set equal the reference's (the fast path emits in id order and
  // reports full obsolescence).
  Rng rng(77);
  ObjectDependenceGraph g;
  std::vector<NodeId> data;
  for (int i = 0; i < 30; ++i) {
    data.push_back(
        g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData));
  }
  for (int i = 0; i < 90; ++i) {
    const NodeId o = g.EnsureNode("o" + std::to_string(i), NodeKind::kObject);
    for (int k = 0; k < 2; ++k) {
      (void)g.AddDependence(data[rng.NextBelow(data.size())], o);
    }
  }
  ASSERT_TRUE(g.IsSimple());
  for (int trial = 0; trial < 20; ++trial) {
    const auto changed = RandomChangeSet(rng, data.size());
    const DupResult want = ReferenceDup(g, changed);
    const DupResult got = DupEngine::ComputeAffected(g, changed);
    ASSERT_TRUE(got.used_simple_path);
    EXPECT_EQ(got.obsolete, want.obsolete);
    EXPECT_EQ(got.visited, want.visited);
    std::vector<NodeId> got_ids, want_ids;
    for (const auto& a : got.affected) got_ids.push_back(a.id);
    for (const auto& a : want.affected) want_ids.push_back(a.id);
    std::sort(want_ids.begin(), want_ids.end());  // fast path: id order
    EXPECT_EQ(got_ids, want_ids);
  }
  // One edge out of an object breaks the simple shape; removing it
  // restores it (IsSimple is maintained incrementally).
  ASSERT_TRUE(g.AddDependence(g.Find("o0"), g.Find("o1")).ok());
  EXPECT_FALSE(g.IsSimple());
  g.SetInEdges(g.Find("o1"), {});
  EXPECT_TRUE(g.IsSimple());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DupDifferentialTest,
                         ::testing::Range<uint64_t>(300, 310));

// --- fragment composition over random sites ---------------------------------
//
// Drives the full pipeline (database -> trigger -> DUP -> renderer -> plan
// cache) over a randomized fragment topology and asserts the two invariants
// of the fragment-first refactor, for any commit sequence:
//   1. every composed page stays byte-identical to a whole-page re-render;
//   2. a commit only touches pages that read the changed key directly or
//      embed a fragment that reads it — invalidation never widens.
class FragmentCompositionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentCompositionTest, ComposedPagesMatchWholePageRenders) {
  Rng rng(GetParam());
  const int kKeys = 6, kFragments = 5, kPages = 8, kCommits = 24;

  db::Database db{db::DatabaseOptions{}};
  ASSERT_TRUE(db.CreateTable("kv", {{"key", db::ColumnType::kString},
                                    {"val", db::ColumnType::kString}})
                  .ok());
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.Upsert("kv", {db::Value("k" + std::to_string(k)),
                                 db::Value(std::string("seed"))})
                    .ok());
  }

  // Random topology: each fragment reads a nonempty key subset; each page
  // embeds a fragment subset plus direct keys of its own.
  std::vector<std::set<int>> frag_keys(kFragments);
  for (auto& keys : frag_keys) {
    keys.insert(static_cast<int>(rng.NextBelow(kKeys)));
    for (int k = 0; k < kKeys; ++k) {
      if (rng.NextBool(0.3)) keys.insert(k);
    }
  }
  std::vector<std::set<int>> page_frags(kPages), page_keys(kPages);
  for (int j = 0; j < kPages; ++j) {
    for (int f = 0; f < kFragments; ++f) {
      if (rng.NextBool(0.4)) page_frags[j].insert(f);
    }
    for (int k = 0; k < kKeys; ++k) {
      if (rng.NextBool(0.2)) page_keys[j].insert(k);
    }
  }

  // Two renderers over the same content: the composing one under test, and
  // a whole-page reference stack (separate cache; markers never involved).
  ObjectDependenceGraph graph, ref_graph;
  cache::ObjectCache cache, ref_cache;
  pagegen::RendererOptions compose_opts;
  compose_opts.compose_pages = true;
  pagegen::RendererOptions whole_opts;
  whole_opts.compose_pages = false;
  pagegen::PageRenderer renderer(&graph, &cache, compose_opts);
  pagegen::PageRenderer reference(&ref_graph, &ref_cache, whole_opts);

  const auto read_key = [&db](const pagegen::RenderRequest& req, int k) {
    const std::string key = "k" + std::to_string(k);
    req.deps.DependsOnData("kv:" + key);
    auto row = CopyRow(db, "kv", db::Value(key));
    return row ? std::get<std::string>(row.value()[1]) : std::string("?");
  };
  for (auto* r : {&renderer, &reference}) {
    for (int f = 0; f < kFragments; ++f) {
      r->RegisterExact("frag:" + std::to_string(f),
                       [&, f](const pagegen::RenderRequest& req)
                           -> Result<std::string> {
                         std::string out = "[f" + std::to_string(f) + ":";
                         for (int k : frag_keys[f]) out += read_key(req, k) + ",";
                         return out + "]";
                       });
    }
    for (int j = 0; j < kPages; ++j) {
      r->RegisterExact("/p" + std::to_string(j),
                       [&, j](const pagegen::RenderRequest& req)
                           -> Result<std::string> {
                         std::string out = "<p" + std::to_string(j) + ">";
                         for (int k : page_keys[j]) out += read_key(req, k) + ";";
                         for (int f : page_frags[j]) {
                           auto frag =
                               req.fragments("frag:" + std::to_string(f));
                           if (!frag.ok()) return frag;
                           out += frag.value();
                         }
                         return out + "</p>";
                       });
    }
  }

  // Prefetch fragments first so every embedding page pins live snapshots.
  for (int f = 0; f < kFragments; ++f) {
    ASSERT_TRUE(renderer.RenderAndCache("frag:" + std::to_string(f)).ok());
  }
  for (int j = 0; j < kPages; ++j) {
    ASSERT_TRUE(renderer.RenderAndCache("/p" + std::to_string(j)).ok());
  }

  trigger::TriggerOptions trigger_opts;
  trigger_opts.policy = trigger::CachePolicy::kDupUpdateInPlace;
  trigger::TriggerMonitor monitor(
      &db, &graph, &cache, &renderer,
      [](const db::ChangeRecord& change) {
        return std::vector<std::string>{"kv:" + change.key};
      },
      trigger_opts);
  monitor.Start();

  for (int commit = 0; commit < kCommits; ++commit) {
    const int changed = static_cast<int>(rng.NextBelow(kKeys));
    std::map<std::string, uint64_t> versions;
    for (int j = 0; j < kPages; ++j) {
      const std::string page = "/p" + std::to_string(j);
      versions[page] = cache.Peek(page)->version;
    }

    ASSERT_TRUE(db.Upsert("kv", {db::Value("k" + std::to_string(changed)),
                                 db::Value("v" + std::to_string(commit))})
                    .ok());
    monitor.Quiesce();

    for (int j = 0; j < kPages; ++j) {
      const std::string page = "/p" + std::to_string(j);
      const auto cached = cache.Peek(page);
      ASSERT_NE(cached, nullptr) << page;

      // Invariant 1: composed bytes == whole-page fresh render. The
      // reference stack has no trigger, so drop its fragment cache first —
      // every reference render is fully fresh.
      ref_cache.InvalidatePrefix("");
      const auto fresh = reference.RenderOnly(page);
      ASSERT_TRUE(fresh.ok()) << page;
      EXPECT_EQ(cached->Materialize(), fresh.value())
          << page << " diverged after commit " << commit << " to k" << changed;

      // Invariant 2: untouched pages keep their version — the affected set
      // never widens past readers of the changed key.
      bool reads_key = page_keys[j].contains(changed);
      for (int f : page_frags[j]) {
        reads_key = reads_key || frag_keys[f].contains(changed);
      }
      if (!reads_key) {
        EXPECT_EQ(cached->version, versions[page])
            << page << " was touched by an unrelated commit to k" << changed;
      }
    }
  }
  monitor.Stop();

  // The topology is random, but with these densities some page must have
  // been patched rather than re-rendered; guard against the compose path
  // silently degrading to whole-page mode.
  EXPECT_GT(cache.stats().plans_patched, 0u) << "no plan was ever patched";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentCompositionTest,
                         ::testing::Range<uint64_t>(7000, 7008));

}  // namespace
}  // namespace nagano::odg
