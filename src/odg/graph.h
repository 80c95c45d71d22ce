// Object Dependence Graph (ODG) — Section 2 of the paper.
//
// Vertices are either *underlying data* (database rows/tables that change),
// *objects* (cacheable items: pages, fragments), or both (a fragment is an
// object and also underlying data for the pages embedding it). A directed
// edge v -> u means "a change to v also affects u". Edges carry optional
// weights expressing the importance of the dependence; weights drive the
// quantitative-obsolescence policy (see dup.h).
//
// The graph is mutated concurrently by the renderer (dependency recording
// during page generation) and read by the trigger monitor (DUP traversals),
// so all public methods are thread-safe via a reader/writer lock.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.h"
#include "common/metrics.h"
#include "common/result.h"

namespace nagano::odg {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

enum class NodeKind : uint8_t {
  kUnderlyingData,  // changes originate here (DB rows, editorial files)
  kObject,          // cacheable leaf (a full page)
  kBoth,            // cacheable and depended-upon (a page fragment)
};

struct Edge {
  NodeId to = kInvalidNode;
  double weight = 1.0;
};

// One named in-edge source for SetInEdges: the vertex is created with
// `kind` (or widened to it), as EnsureNode would.
struct DependencySource {
  std::string_view name;
  NodeKind kind = NodeKind::kUnderlyingData;
  double weight = 1.0;
};

class ObjectDependenceGraph {
 public:
  ObjectDependenceGraph() : ObjectDependenceGraph(metrics::Options{}) {}
  explicit ObjectDependenceGraph(const metrics::Options& metrics_options);

  ObjectDependenceGraph(const ObjectDependenceGraph&) = delete;
  ObjectDependenceGraph& operator=(const ObjectDependenceGraph&) = delete;

  // Returns the node named `name`, creating it with `kind` if absent. If the
  // node exists with a narrower kind, the kind is widened (e.g. an existing
  // kObject later used as a dependency source becomes kBoth).
  NodeId EnsureNode(std::string_view name, NodeKind kind);

  // kInvalidNode if the name has never been added.
  NodeId Find(std::string_view name) const;

  // Adds (or re-weights) the dependence edge from -> to: "a change to `from`
  // affects `to`". Self-edges are rejected.
  Status AddDependence(NodeId from, NodeId to, double weight = 1.0);

  // Replaces the in-edge set of `of` with the named `sources` (among
  // duplicate sources the last weight wins, matching repeated
  // AddDependence calls; self-edges and non-positive weights are dropped).
  // The graph keeps a 64-bit fingerprint of the list last applied to `of`:
  // a call with the same list — the steady state of re-renders — returns
  // after one shared-lock comparison, resolving no names and writing
  // nothing, so parallel re-render workers neither hash every dependency
  // nor serialize on the write lock. Any other change to `of`'s in-edges
  // forgets the fingerprint.
  void SetInEdges(NodeId of, std::span<const DependencySource> sources);

  bool HasEdge(NodeId from, NodeId to) const;

  NodeKind kind(NodeId id) const;
  std::string_view name(NodeId id) const;
  size_t node_count() const;
  size_t edge_count() const;

  // A *simple* ODG (paper Fig. 2): every underlying-data vertex has no
  // incoming edge, every object vertex has no outgoing edge, and no edge
  // carries a non-default weight. DUP has a fast path for this shape.
  // O(1): mutations keep a count of the vertices breaking the shape.
  bool IsSimple() const;

  // Runs `fn(adjacency_out, adjacency_in, kinds)` under the read lock. Used
  // by the DUP engine to traverse without copying the whole graph.
  template <typename Fn>
  auto WithSnapshot(Fn&& fn) const {
    std::shared_lock lock(mutex_);
    return fn(out_, in_, kinds_);
  }

 private:
  // Unlocked internals; callers hold mutex_.
  // Counts one mutation and mirrors nodes/edges into the registry cells.
  void CountMutationLocked();
  // 1 when `v` breaks the simple shape (see IsSimple), else 0. Mutations
  // subtract it for every vertex they touch before the change and add it
  // back after, keeping non_simple_ exact.
  size_t BreaksSimpleLocked(NodeId v) const;
  // `sorted_sources` must be sorted by Edge::to and free of duplicates.
  void ReplaceInEdgesLocked(NodeId of, const std::vector<Edge>& sorted_sources);
  // `sorted_sources` must be sorted by Edge::to.
  bool InEdgesEqualLocked(NodeId of, const std::vector<Edge>& sorted_sources) const;

  mutable std::shared_mutex mutex_;
  StringInterner names_;
  std::vector<NodeKind> kinds_;          // indexed by NodeId
  std::vector<std::vector<Edge>> out_;   // out_[v] = edges v -> u
  std::vector<std::vector<Edge>> in_;    // in_[u]  = edges v -> u (to = source)
  // in_fingerprint_[u]: fingerprint of the source list SetInEdges last
  // applied to u, 0 when u's in-edges changed any other way since.
  std::vector<uint64_t> in_fingerprint_;
  size_t edge_count_ = 0;
  size_t non_simple_ = 0;  // vertices for which BreaksSimpleLocked is 1
  bool has_custom_weights_ = false;

  // Registry mirrors of the lock-guarded counters above, for /metrics.
  metrics::Gauge* nodes_gauge_;
  metrics::Gauge* edges_gauge_;
  metrics::Counter* mutations_;
};

}  // namespace nagano::odg
