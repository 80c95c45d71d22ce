#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "odg/dup.h"
#include "odg/graph.h"

namespace nagano::odg {
namespace {

std::vector<NodeId> AffectedIds(const DupResult& r) {
  std::vector<NodeId> ids;
  for (const auto& a : r.affected) ids.push_back(a.id);
  return ids;
}

bool Contains(const DupResult& r, NodeId id) {
  const auto ids = AffectedIds(r);
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

double ObsolescenceOf(const DupResult& r, NodeId id) {
  for (const auto& a : r.affected) {
    if (a.id == id) return a.obsolescence;
  }
  return -1.0;
}

// --- graph basics -----------------------------------------------------------

TEST(GraphTest, EnsureNodeIdempotent) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kObject);
  EXPECT_EQ(g.EnsureNode("a", NodeKind::kObject), a);
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(GraphTest, KindWidensToBoth) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kObject);
  EXPECT_EQ(g.kind(a), NodeKind::kObject);
  g.EnsureNode("a", NodeKind::kUnderlyingData);
  EXPECT_EQ(g.kind(a), NodeKind::kBoth);
}

TEST(GraphTest, FindUnknownReturnsInvalid) {
  ObjectDependenceGraph g;
  EXPECT_EQ(g.Find("ghost"), kInvalidNode);
  g.EnsureNode("real", NodeKind::kObject);
  EXPECT_NE(g.Find("real"), kInvalidNode);
}

TEST(GraphTest, NameRoundtrip) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("results:event:12", NodeKind::kUnderlyingData);
  EXPECT_EQ(g.name(a), "results:event:12");
}

TEST(GraphTest, AddDependenceCreatesEdge) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  EXPECT_TRUE(g.AddDependence(d, o).ok());
  EXPECT_TRUE(g.HasEdge(d, o));
  EXPECT_FALSE(g.HasEdge(o, d));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphTest, AddDependenceDuplicateIsReweight) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, o, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(d, o, 5.0).ok());
  EXPECT_EQ(g.edge_count(), 1u);
  g.WithSnapshot([&](const auto& out, const auto& in, const auto&) {
    ASSERT_EQ(out[d].size(), 1u);
    EXPECT_DOUBLE_EQ(out[d][0].weight, 5.0);
    ASSERT_EQ(in[o].size(), 1u);
    EXPECT_DOUBLE_EQ(in[o][0].weight, 5.0);
  });
}

TEST(GraphTest, SelfEdgeRejected) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kBoth);
  EXPECT_EQ(g.AddDependence(a, a).code(), ErrorCode::kInvalidArgument);
}

TEST(GraphTest, NonPositiveWeightRejected) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  EXPECT_EQ(g.AddDependence(d, o, 0.0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.AddDependence(d, o, -1.0).code(), ErrorCode::kInvalidArgument);
}

TEST(GraphTest, UnknownNodeRejected) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kObject);
  EXPECT_EQ(g.AddDependence(a, 999).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.AddDependence(999, a).code(), ErrorCode::kInvalidArgument);
}

TEST(GraphTest, EmptySetInEdgesDropsOnlyIncoming) {
  ObjectDependenceGraph g;
  const NodeId d1 = g.EnsureNode("d1", NodeKind::kUnderlyingData);
  const NodeId d2 = g.EnsureNode("d2", NodeKind::kUnderlyingData);
  const NodeId frag = g.EnsureNode("frag", NodeKind::kBoth);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d1, frag).ok());
  ASSERT_TRUE(g.AddDependence(d2, frag).ok());
  ASSERT_TRUE(g.AddDependence(frag, page).ok());

  g.SetInEdges(frag, {});
  EXPECT_FALSE(g.HasEdge(d1, frag));
  EXPECT_FALSE(g.HasEdge(d2, frag));
  EXPECT_TRUE(g.HasEdge(frag, page));  // outgoing edge survives
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphTest, MutationsAreCounted) {
  metrics::MetricRegistry registry;
  metrics::Options options;
  options.registry = &registry;
  options.instance = "g";
  ObjectDependenceGraph g(options);
  const metrics::Counter* mutations = registry.GetCounter(
      "nagano_odg_mutations_total", {{"site", "g"}});
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  const uint64_t after_nodes = mutations->value();
  EXPECT_GT(after_nodes, 0u);
  ASSERT_TRUE(g.AddDependence(d, o).ok());
  EXPECT_GT(mutations->value(), after_nodes);
}

// --- IsSimple ------------------------------------------------------------------

TEST(GraphTest, BipartiteUnweightedIsSimple) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o1 = g.EnsureNode("o1", NodeKind::kObject);
  const NodeId o2 = g.EnsureNode("o2", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, o1).ok());
  ASSERT_TRUE(g.AddDependence(d, o2).ok());
  EXPECT_TRUE(g.IsSimple());
}

TEST(GraphTest, CustomWeightBreaksSimplicity) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, o, 2.0).ok());
  EXPECT_FALSE(g.IsSimple());
}

TEST(GraphTest, IntermediateVertexBreaksSimplicity) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId frag = g.EnsureNode("frag", NodeKind::kBoth);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, frag).ok());
  EXPECT_TRUE(g.IsSimple());  // frag has only incoming so far
  ASSERT_TRUE(g.AddDependence(frag, page).ok());
  EXPECT_FALSE(g.IsSimple());
}

// --- DUP: simple path --------------------------------------------------------------

TEST(DupTest, SimpleGraphUsesFastPath) {
  ObjectDependenceGraph g;
  const NodeId d1 = g.EnsureNode("d1", NodeKind::kUnderlyingData);
  const NodeId d2 = g.EnsureNode("d2", NodeKind::kUnderlyingData);
  const NodeId o1 = g.EnsureNode("o1", NodeKind::kObject);
  const NodeId o2 = g.EnsureNode("o2", NodeKind::kObject);
  const NodeId o3 = g.EnsureNode("o3", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d1, o1).ok());
  ASSERT_TRUE(g.AddDependence(d1, o2).ok());
  ASSERT_TRUE(g.AddDependence(d2, o3).ok());

  const NodeId changed[] = {d1};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_TRUE(r.used_simple_path);
  EXPECT_EQ(AffectedIds(r), (std::vector<NodeId>{o1, o2}));
  EXPECT_DOUBLE_EQ(ObsolescenceOf(r, o1), 1.0);
}

TEST(DupTest, SimplePathCanBeDisabled) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, o).ok());

  DupOptions options;
  options.enable_simple_fast_path = false;
  const NodeId changed[] = {d};
  const auto r = DupEngine::ComputeAffected(g, changed, options);
  EXPECT_FALSE(r.used_simple_path);
  EXPECT_EQ(AffectedIds(r), (std::vector<NodeId>{o}));
}

TEST(DupTest, EmptyChangeSet) {
  ObjectDependenceGraph g;
  g.EnsureNode("d", NodeKind::kUnderlyingData);
  const auto r = DupEngine::ComputeAffected(g, {});
  EXPECT_TRUE(r.affected.empty());
}

TEST(DupTest, UnknownChangedIdsIgnored) {
  ObjectDependenceGraph g;
  g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId changed[] = {12345};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_TRUE(r.affected.empty());
}

// --- DUP: general path -----------------------------------------------------------------

TEST(DupTest, TransitivePropagation) {
  // d -> frag -> page: change to d affects both, fragment first.
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId frag = g.EnsureNode("frag", NodeKind::kBoth);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, frag).ok());
  ASSERT_TRUE(g.AddDependence(frag, page).ok());

  const NodeId changed[] = {d};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_FALSE(r.used_simple_path);
  ASSERT_EQ(r.affected.size(), 2u);
  EXPECT_EQ(r.affected[0].id, frag);  // dependency order: fragment first
  EXPECT_EQ(r.affected[1].id, page);
  EXPECT_DOUBLE_EQ(r.affected[0].obsolescence, 1.0);
  EXPECT_DOUBLE_EQ(r.affected[1].obsolescence, 1.0);
}

TEST(DupTest, ChangedNodesExcludedFromAffected) {
  ObjectDependenceGraph g;
  const NodeId both = g.EnsureNode("both", NodeKind::kBoth);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(both, page).ok());
  const NodeId changed[] = {both};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_FALSE(Contains(r, both));
  EXPECT_TRUE(Contains(r, page));
}

TEST(DupTest, PureDataIntermediatesNotReported) {
  // d -> mid(data) -> o: mid is underlying data only, never cached.
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId mid = g.EnsureNode("mid", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, mid).ok());
  ASSERT_TRUE(g.AddDependence(mid, o).ok());
  const NodeId changed[] = {d};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_FALSE(Contains(r, mid));
  EXPECT_TRUE(Contains(r, o));
  EXPECT_EQ(r.visited, 3u);
}

TEST(DupTest, PaperFigure1Weights) {
  // Figure 1: go1 --5--> go5, go2 --1--> go5, go2,go3,go4 --1--> go6,
  // go5,go6 --1--> go7. Change go2.
  ObjectDependenceGraph g;
  const NodeId go1 = g.EnsureNode("go1", NodeKind::kUnderlyingData);
  const NodeId go2 = g.EnsureNode("go2", NodeKind::kUnderlyingData);
  const NodeId go3 = g.EnsureNode("go3", NodeKind::kUnderlyingData);
  const NodeId go4 = g.EnsureNode("go4", NodeKind::kUnderlyingData);
  const NodeId go5 = g.EnsureNode("go5", NodeKind::kBoth);
  const NodeId go6 = g.EnsureNode("go6", NodeKind::kBoth);
  const NodeId go7 = g.EnsureNode("go7", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(go1, go5, 5.0).ok());
  ASSERT_TRUE(g.AddDependence(go2, go5, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(go2, go6, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(go3, go6, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(go4, go6, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(go5, go7, 1.0).ok());
  ASSERT_TRUE(g.AddDependence(go6, go7, 1.0).ok());

  const NodeId changed[] = {go2};
  const auto r = DupEngine::ComputeAffected(g, changed);
  // Paper: "DUP determines that nodes go5 and go6 also change. By
  // transitivity, go7 also changes."
  EXPECT_TRUE(Contains(r, go5));
  EXPECT_TRUE(Contains(r, go6));
  EXPECT_TRUE(Contains(r, go7));
  // go5's obsolescence is small: only 1 of its 6 units of input changed.
  EXPECT_NEAR(ObsolescenceOf(r, go5), 1.0 / 6.0, 1e-9);
  EXPECT_NEAR(ObsolescenceOf(r, go6), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(ObsolescenceOf(r, go7), (1.0 / 6.0 + 1.0 / 3.0) / 2.0, 1e-9);

  // Changing go1 instead makes go5 heavily obsolete.
  const NodeId changed1[] = {go1};
  const auto r1 = DupEngine::ComputeAffected(g, changed1);
  EXPECT_NEAR(ObsolescenceOf(r1, go5), 5.0 / 6.0, 1e-9);
  EXPECT_FALSE(Contains(r1, go6));
}

TEST(DupTest, ThresholdSuppressesSlightlyObsolete) {
  // The paper: "save considerable CPU cycles by allowing pages to remain in
  // the cache which are only slightly obsolete."
  ObjectDependenceGraph g;
  const NodeId big = g.EnsureNode("big", NodeKind::kUnderlyingData);
  const NodeId small = g.EnsureNode("small", NodeKind::kUnderlyingData);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(big, page, 9.0).ok());
  ASSERT_TRUE(g.AddDependence(small, page, 1.0).ok());

  DupOptions options;
  options.obsolescence_threshold = 0.5;
  const NodeId changed_small[] = {small};
  EXPECT_TRUE(
      DupEngine::ComputeAffected(g, changed_small, options).affected.empty());
  const NodeId changed_big[] = {big};
  EXPECT_EQ(
      DupEngine::ComputeAffected(g, changed_big, options).affected.size(), 1u);
}

TEST(DupTest, MultipleChangedInputsAccumulate) {
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kUnderlyingData);
  const NodeId b = g.EnsureNode("b", NodeKind::kUnderlyingData);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(a, o, 3.0).ok());
  ASSERT_TRUE(g.AddDependence(b, o, 1.0).ok());
  DupOptions options;
  options.enable_simple_fast_path = false;
  const NodeId changed[] = {a, b};
  const auto r = DupEngine::ComputeAffected(g, changed, options);
  EXPECT_DOUBLE_EQ(ObsolescenceOf(r, o), 1.0);  // all inputs changed
}

TEST(DupTest, CycleHandledViaScc) {
  // a -> x <-> y -> o : x,y mutually dependent (kBoth), both become
  // obsolete; o downstream of the cycle.
  ObjectDependenceGraph g;
  const NodeId a = g.EnsureNode("a", NodeKind::kUnderlyingData);
  const NodeId x = g.EnsureNode("x", NodeKind::kBoth);
  const NodeId y = g.EnsureNode("y", NodeKind::kBoth);
  const NodeId o = g.EnsureNode("o", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(a, x).ok());
  ASSERT_TRUE(g.AddDependence(x, y).ok());
  ASSERT_TRUE(g.AddDependence(y, x).ok());
  ASSERT_TRUE(g.AddDependence(y, o).ok());

  const NodeId changed[] = {a};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_TRUE(Contains(r, x));
  EXPECT_TRUE(Contains(r, y));
  EXPECT_TRUE(Contains(r, o));
  // Members of the SCC share the component obsolescence.
  EXPECT_DOUBLE_EQ(ObsolescenceOf(r, x), ObsolescenceOf(r, y));
  // x and y must both precede o in the regeneration order.
  const auto ids = AffectedIds(r);
  const auto pos_o = std::find(ids.begin(), ids.end(), o) - ids.begin();
  const auto pos_x = std::find(ids.begin(), ids.end(), x) - ids.begin();
  const auto pos_y = std::find(ids.begin(), ids.end(), y) - ids.begin();
  EXPECT_LT(pos_x, pos_o);
  EXPECT_LT(pos_y, pos_o);
}

TEST(DupTest, DisconnectedComponentsUntouched) {
  ObjectDependenceGraph g;
  const NodeId d1 = g.EnsureNode("d1", NodeKind::kUnderlyingData);
  const NodeId o1 = g.EnsureNode("o1", NodeKind::kObject);
  const NodeId d2 = g.EnsureNode("d2", NodeKind::kUnderlyingData);
  const NodeId o2 = g.EnsureNode("o2", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d1, o1).ok());
  ASSERT_TRUE(g.AddDependence(d2, o2).ok());
  const NodeId changed[] = {d1};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_TRUE(Contains(r, o1));
  EXPECT_FALSE(Contains(r, o2));
}

TEST(DupTest, DiamondCountedOnce) {
  ObjectDependenceGraph g;
  const NodeId d = g.EnsureNode("d", NodeKind::kUnderlyingData);
  const NodeId f1 = g.EnsureNode("f1", NodeKind::kBoth);
  const NodeId f2 = g.EnsureNode("f2", NodeKind::kBoth);
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  ASSERT_TRUE(g.AddDependence(d, f1).ok());
  ASSERT_TRUE(g.AddDependence(d, f2).ok());
  ASSERT_TRUE(g.AddDependence(f1, page).ok());
  ASSERT_TRUE(g.AddDependence(f2, page).ok());
  const NodeId changed[] = {d};
  const auto r = DupEngine::ComputeAffected(g, changed);
  EXPECT_EQ(r.affected.size(), 3u);
  const auto ids = AffectedIds(r);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), page), 1);
  EXPECT_DOUBLE_EQ(ObsolescenceOf(r, page), 1.0);
}

}  // namespace
}  // namespace nagano::odg
