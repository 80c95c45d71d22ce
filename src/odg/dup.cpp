#include "odg/dup.h"

#include <algorithm>
#include <cassert>

namespace nagano::odg {
namespace {

bool IsCacheable(NodeKind k) {
  return k == NodeKind::kObject || k == NodeKind::kBoth;
}

using Adjacency = std::vector<std::vector<Edge>>;

constexpr uint32_t kUnvisited = UINT32_MAX;

// Per-thread working set of one ComputeAffected call. The vertex -> slot
// map persists between calls and is never cleared: a vertex belongs to the
// current closure iff its stamp equals the call's epoch. Every other array
// is indexed by slot and sized to the closure, so a call costs
// O(closure + its edges), not O(graph).
struct ClosureScratch {
  std::vector<uint32_t> stamp;  // indexed by NodeId; == epoch <=> in closure
  std::vector<uint32_t> slot;   // indexed by NodeId; valid when stamped
  uint32_t epoch = 0;

  std::vector<NodeId> verts;    // slot -> vertex
  std::vector<char> changed;    // slot -> is a changed input
  // Tarjan state and its results, by slot.
  std::vector<uint32_t> index, low, comp;
  std::vector<char> on_stack;
  std::vector<uint32_t> stack;
  struct Frame {
    uint32_t s;
    size_t edge;
  };
  std::vector<Frame> frames;
  // Component buckets: members of component c are
  // members[member_begin[c] .. member_begin[c + 1]), slots ascending.
  std::vector<uint32_t> member_begin, members;
  std::vector<double> obs;

  // Starts a call over a graph of `n` vertices; the graph may have grown
  // since the last call.
  void Begin(size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      slot.resize(n);
    }
    if (++epoch == 0) {  // wrapped: old stamps could alias the new epoch
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    verts.clear();
    changed.clear();
  }
  bool Contains(NodeId v) const { return stamp[v] == epoch; }
  // Adds `v` to the closure as the next slot, unless already there.
  void Add(NodeId v, bool is_changed) {
    if (Contains(v)) return;
    stamp[v] = epoch;
    slot[v] = static_cast<uint32_t>(verts.size());
    verts.push_back(v);
    changed.push_back(is_changed ? 1 : 0);
  }
};

thread_local ClosureScratch tls_scratch;

// Iterative Tarjan over the closure's slots in NodeId order, following
// out-edges in adjacency order. Fills comp[s]; components are numbered in
// *reverse* topological order (a component's successors always receive
// smaller indices). Returns the component count.
uint32_t RunTarjan(const Adjacency& out, ClosureScratch& sc) {
  const size_t k = sc.verts.size();
  sc.index.assign(k, kUnvisited);
  sc.low.assign(k, 0);
  sc.comp.assign(k, 0);
  sc.on_stack.assign(k, 0);
  sc.stack.clear();
  uint32_t next_index = 0;
  uint32_t next_comp = 0;
  const auto open = [&](uint32_t s) {
    sc.index[s] = sc.low[s] = next_index++;
    sc.stack.push_back(s);
    sc.on_stack[s] = 1;
    sc.frames.push_back({s, 0});
  };
  for (uint32_t root = 0; root < k; ++root) {
    if (sc.index[root] != kUnvisited) continue;
    open(root);
    while (!sc.frames.empty()) {
      auto& f = sc.frames.back();
      const auto& edges = out[sc.verts[f.s]];
      bool descended = false;
      while (f.edge < edges.size()) {
        const uint32_t w = sc.slot[edges[f.edge].to];
        ++f.edge;
        if (sc.index[w] == kUnvisited) {
          open(w);  // invalidates f
          descended = true;
          break;
        }
        if (sc.on_stack[w]) sc.low[f.s] = std::min(sc.low[f.s], sc.index[w]);
      }
      if (descended) continue;

      // f.s is finished: pop its component if it is a root.
      const uint32_t s = f.s;
      sc.frames.pop_back();
      if (sc.low[s] == sc.index[s]) {
        for (;;) {
          const uint32_t w = sc.stack.back();
          sc.stack.pop_back();
          sc.on_stack[w] = 0;
          sc.comp[w] = next_comp;
          if (w == s) break;
        }
        ++next_comp;
      }
      if (!sc.frames.empty()) {
        const uint32_t parent = sc.frames.back().s;
        sc.low[parent] = std::min(sc.low[parent], sc.low[s]);
      }
    }
  }
  return next_comp;
}

}  // namespace

DupResult DupEngine::ComputeAffected(const ObjectDependenceGraph& graph,
                                     std::span<const NodeId> changed,
                                     const DupOptions& options) {
  const bool simple = options.enable_simple_fast_path && graph.IsSimple();

  return graph.WithSnapshot([&](const Adjacency& out, const Adjacency& in,
                                const std::vector<NodeKind>& kinds) {
    DupResult result;
    ClosureScratch& sc = tls_scratch;
    sc.Begin(kinds.size());
    for (NodeId c : changed) {
      if (c < kinds.size()) sc.Add(c, /*is_changed=*/true);
    }
    const size_t num_changed = sc.verts.size();

    if (simple) {
      // Bipartite fast path: the affected objects are exactly the
      // out-neighbours of the changed vertices.
      result.used_simple_path = true;
      for (size_t i = 0; i < num_changed; ++i) {
        for (const Edge& e : out[sc.verts[i]]) sc.Add(e.to, false);
      }
      // Bipartite closure = changed inputs + their out-neighbours.
      result.visited = sc.verts.size();
      result.obsolete = sc.verts;
      std::sort(result.obsolete.begin(), result.obsolete.end());
      if (1.0 > options.obsolescence_threshold) {
        for (const NodeId v : result.obsolete) {
          if (sc.changed[sc.slot[v]] || !IsCacheable(kinds[v])) continue;
          result.affected.push_back(AffectedObject{v, 1.0});
        }
      }
      return result;
    }

    // --- General path ---
    // 1. Forward reachability from the changed set; sc.verts doubles as
    // the work list (slots past `next` are still to be expanded).
    for (size_t next = 0; next < sc.verts.size(); ++next) {
      for (const Edge& e : out[sc.verts[next]]) sc.Add(e.to, false);
    }
    // Renumber slots in NodeId order, so every walk below visits vertices
    // in the order a whole-graph scan would.
    std::sort(sc.verts.begin(), sc.verts.end());
    const size_t k = sc.verts.size();
    sc.changed.assign(k, 0);
    for (uint32_t s = 0; s < k; ++s) sc.slot[sc.verts[s]] = s;
    for (NodeId c : changed) {
      if (c < kinds.size()) sc.changed[sc.slot[c]] = 1;
    }
    result.visited = k;
    result.obsolete = sc.verts;

    // 2. Condense cycles among the closure.
    const uint32_t num_comps = RunTarjan(out, sc);

    // Bucket slots by component (a stable counting sort, so members stay
    // in NodeId order).
    sc.member_begin.assign(num_comps + 1, 0);
    for (uint32_t s = 0; s < k; ++s) ++sc.member_begin[sc.comp[s] + 1];
    for (uint32_t c = 0; c < num_comps; ++c) {
      sc.member_begin[c + 1] += sc.member_begin[c];
    }
    sc.members.resize(k);
    {
      std::vector<uint32_t>& fill = sc.low;  // Tarjan is done with it
      fill.assign(sc.member_begin.begin(), sc.member_begin.end() - 1);
      for (uint32_t s = 0; s < k; ++s) sc.members[fill[sc.comp[s]]++] = s;
    }
    const auto members = [&](uint32_t ci) {
      return std::span<const uint32_t>(sc.members.data() + sc.member_begin[ci],
                                       sc.member_begin[ci + 1] -
                                           sc.member_begin[ci]);
    };

    // Tarjan emits components in reverse topological order; iterating
    // component index descending processes dependency sources first.
    // Members of a component share its obsolescence.
    sc.obs.assign(k, 0.0);
    for (uint32_t ci = num_comps; ci-- > 0;) {
      double score = 0.0;
      for (const uint32_t s : members(ci)) {
        if (sc.changed[s]) {
          score = 1.0;
          break;
        }
        // Total incoming weight over *all* edges (changed or not) — the
        // denominator that makes weights express relative importance.
        double total_in = 0.0;
        double changed_in = 0.0;
        for (const Edge& e : in[sc.verts[s]]) {
          total_in += e.weight;
          if (sc.Contains(e.to) && sc.comp[sc.slot[e.to]] != ci) {
            changed_in += e.weight * sc.obs[sc.slot[e.to]];
          }
        }
        if (total_in > 0.0) {
          score = std::max(score, std::min(1.0, changed_in / total_in));
        }
      }
      for (const uint32_t s : members(ci)) sc.obs[s] = score;
    }

    // 3. Emit cacheable, sufficiently obsolete vertices in dependency
    // order (sources first), excluding the changed inputs themselves.
    for (uint32_t ci = num_comps; ci-- > 0;) {
      for (const uint32_t s : members(ci)) {
        const NodeId v = sc.verts[s];
        if (sc.changed[s] || !IsCacheable(kinds[v])) continue;
        if (sc.obs[s] > options.obsolescence_threshold) {
          result.affected.push_back(AffectedObject{v, sc.obs[s]});
        }
      }
    }
    return result;
  });
}

}  // namespace nagano::odg
