// Data Update Propagation (DUP) — the paper's core algorithm.
//
// Given a set of underlying-data vertices that just changed, DUP determines
// via graph traversal which cached objects are now obsolete, and how
// obsolete (when edges carry weights). The caller — the trigger monitor —
// then either regenerates those objects and updates them in place, or
// invalidates them, per the configured cache policy.
//
// Two paths, as in the paper/tech report:
//  * Simple ODGs (bipartite data->object, unweighted): affected objects are
//    exactly the out-neighbours of the changed vertices; one adjacency scan.
//  * General ODGs: reachability from the changed set, with quantitative
//    obsolescence propagated along weighted edges. Cycles are handled by
//    condensing strongly connected components (Tarjan) — members of an SCC
//    are mutually dependent and share the component's obsolescence.
//
// Obsolescence model: a changed vertex has obsolescence 1. For any other
// vertex v, obsolescence(v) = min(1, Σ_{u->v} w(u,v)·obs(u) / W_in(v)),
// where W_in(v) is the total incoming weight of v. With unit weights and a
// single changed ancestor this degrades to plain reachability (every
// reachable object scores > 0); the weighted form reproduces the paper's
// Fig. 1 example where the go1->go5 dependence (weight 5) matters five
// times more than go2->go5 (weight 1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "odg/graph.h"

namespace nagano::odg {

struct AffectedObject {
  NodeId id = kInvalidNode;
  double obsolescence = 0.0;
};

struct DupResult {
  // Cacheable vertices (kObject / kBoth) whose obsolescence exceeds the
  // threshold, in dependency order: if fragment f feeds page p, f precedes
  // p, so regeneration can proceed front-to-back.
  std::vector<AffectedObject> affected;

  // All reachable vertices (including pure underlying-data intermediates);
  // size of the traversal frontier, for the DUPSCALE bench.
  size_t visited = 0;

  // Every vertex of the propagation closure — the changed inputs plus
  // everything reachable from them (affected objects, sub-threshold
  // objects, and pure-data intermediates), sorted by NodeId. The trigger
  // monitor's plan-patch decision reads this: a page's composition plan can
  // be patched in place iff every obsolete in-edge source is a fragment the
  // plan embeds; any obsolete non-fragment input means the page's static
  // skeleton may have changed and a full re-render is required.
  std::vector<NodeId> obsolete;

  bool used_simple_path = false;
};

struct DupOptions {
  // Objects with obsolescence <= threshold stay in the cache untouched —
  // the paper's "save considerable CPU cycles by allowing pages to remain
  // in the cache which are only slightly obsolete". 0 means any obsolete
  // object is reported.
  double obsolescence_threshold = 0.0;

  // Allow the bipartite fast path when the graph is simple. Disabled by the
  // ablation bench to quantify the fast path's benefit.
  bool enable_simple_fast_path = true;
};

class DupEngine {
 public:
  // Runs DUP over `graph` for the given changed underlying-data vertices.
  // Unknown ids are ignored. Thread-safe with respect to concurrent graph
  // mutation (takes the graph's read lock for the duration).
  static DupResult ComputeAffected(const ObjectDependenceGraph& graph,
                                   std::span<const NodeId> changed,
                                   const DupOptions& options = {});
};

}  // namespace nagano::odg
