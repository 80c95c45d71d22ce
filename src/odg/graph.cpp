#include "odg/graph.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace nagano::odg {
namespace {

// FNV-1a over every source's name, kind and weight bits, in order; never 0
// (0 marks "no fingerprint").
uint64_t Fingerprint(std::span<const DependencySource> sources) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const DependencySource& s : sources) {
    const uint64_t size = s.name.size();
    mix(&size, sizeof(size));
    mix(s.name.data(), s.name.size());
    mix(&s.kind, sizeof(s.kind));
    mix(&s.weight, sizeof(s.weight));
  }
  return h == 0 ? 1 : h;
}

// Widening lattice: data + object = both.
NodeKind WidenKind(NodeKind a, NodeKind b) {
  if (a == b) return a;
  return NodeKind::kBoth;
}

}  // namespace

ObjectDependenceGraph::ObjectDependenceGraph(
    const metrics::Options& metrics_options) {
  const auto scope = metrics::Scope::Resolve(metrics_options, "odg");
  nodes_gauge_ = scope.GetGauge("nagano_odg_nodes", "ODG vertices");
  edges_gauge_ = scope.GetGauge("nagano_odg_edges", "ODG dependence edges");
  mutations_ =
      scope.GetCounter("nagano_odg_mutations_total", "graph mutations");
}

void ObjectDependenceGraph::CountMutationLocked() {
  mutations_->Increment();
  nodes_gauge_->Set(static_cast<double>(kinds_.size()));
  edges_gauge_->Set(static_cast<double>(edge_count_));
}

NodeId ObjectDependenceGraph::EnsureNode(std::string_view node_name,
                                         NodeKind node_kind) {
  {
    // Steady-state fast path: the node already exists with a kind at least
    // as wide as requested. Re-renders resolve every dependency through
    // here, so parallel workers must not serialize on the write lock.
    std::shared_lock lock(mutex_);
    const InternId existing = names_.Lookup(node_name);
    if (existing != kInvalidInternId && existing < kinds_.size() &&
        WidenKind(kinds_[existing], node_kind) == kinds_[existing]) {
      return existing;
    }
  }
  std::unique_lock lock(mutex_);
  const InternId id = names_.Intern(node_name);
  if (id >= kinds_.size()) {
    kinds_.resize(id + 1, node_kind);
    out_.resize(id + 1);
    in_.resize(id + 1);
    in_fingerprint_.resize(id + 1, 0);
    CountMutationLocked();
  } else {
    const NodeKind widened = WidenKind(kinds_[id], node_kind);
    if (widened != kinds_[id]) {
      non_simple_ -= BreaksSimpleLocked(id);
      kinds_[id] = widened;
      non_simple_ += BreaksSimpleLocked(id);
      CountMutationLocked();
    }
  }
  return id;
}

NodeId ObjectDependenceGraph::Find(std::string_view node_name) const {
  std::shared_lock lock(mutex_);
  const InternId id = names_.Lookup(node_name);
  return id == kInvalidInternId ? kInvalidNode : id;
}

Status ObjectDependenceGraph::AddDependence(NodeId from, NodeId to,
                                            double weight) {
  std::unique_lock lock(mutex_);
  if (from >= kinds_.size() || to >= kinds_.size()) {
    return InvalidArgumentError("AddDependence: unknown node id");
  }
  if (from == to) {
    return InvalidArgumentError("AddDependence: self-dependence rejected");
  }
  if (weight <= 0.0) {
    return InvalidArgumentError("AddDependence: weight must be positive");
  }
  in_fingerprint_[to] = 0;
  for (Edge& e : out_[from]) {
    if (e.to == to) {  // re-weight existing edge
      if (e.weight != weight) {
        e.weight = weight;
        for (Edge& r : in_[to]) {
          if (r.to == from) r.weight = weight;
        }
        if (weight != 1.0) has_custom_weights_ = true;
        CountMutationLocked();
      }
      return Status::Ok();
    }
  }
  non_simple_ -= BreaksSimpleLocked(from) + BreaksSimpleLocked(to);
  out_[from].push_back(Edge{to, weight});
  in_[to].push_back(Edge{from, weight});
  non_simple_ += BreaksSimpleLocked(from) + BreaksSimpleLocked(to);
  ++edge_count_;
  CountMutationLocked();
  if (weight != 1.0) has_custom_weights_ = true;
  return Status::Ok();
}

void ObjectDependenceGraph::ReplaceInEdgesLocked(
    NodeId of, const std::vector<Edge>& sorted_sources) {
  // Every vertex whose edge lists change: `of`, its old and new sources.
  std::vector<NodeId> touched{of};
  for (const Edge& e : in_[of]) touched.push_back(e.to);
  for (const Edge& e : sorted_sources) {
    if (e.to < kinds_.size()) touched.push_back(e.to);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const NodeId v : touched) non_simple_ -= BreaksSimpleLocked(v);

  for (const Edge& e : in_[of]) {
    auto& edges = out_[e.to];
    edges.erase(std::find_if(edges.begin(), edges.end(),
                             [of](const Edge& o) { return o.to == of; }));
    --edge_count_;
  }
  in_[of].clear();
  for (const Edge& e : sorted_sources) {
    if (e.to >= kinds_.size()) continue;
    out_[e.to].push_back(Edge{of, e.weight});
    in_[of].push_back(e);
    ++edge_count_;
    if (e.weight != 1.0) has_custom_weights_ = true;
  }

  for (const NodeId v : touched) non_simple_ += BreaksSimpleLocked(v);
  in_fingerprint_[of] = 0;
  CountMutationLocked();
}

bool ObjectDependenceGraph::InEdgesEqualLocked(
    NodeId of, const std::vector<Edge>& sorted_sources) const {
  const auto& current = in_[of];
  if (current.size() != sorted_sources.size()) return false;
  std::vector<Edge> cur = current;
  std::sort(cur.begin(), cur.end(),
            [](const Edge& a, const Edge& b) { return a.to < b.to; });
  for (size_t i = 0; i < cur.size(); ++i) {
    if (cur[i].to != sorted_sources[i].to ||
        cur[i].weight != sorted_sources[i].weight) {
      return false;
    }
  }
  return true;
}

void ObjectDependenceGraph::SetInEdges(
    NodeId of, std::span<const DependencySource> sources) {
  const uint64_t fingerprint = Fingerprint(sources);
  {
    std::shared_lock lock(mutex_);
    if (of >= kinds_.size()) return;
    if (in_fingerprint_[of] == fingerprint) return;
  }

  // Resolve the names, then dedup keeping the last occurrence's weight;
  // drop self-edges and non-positive weights. Dependency lists are tens of
  // entries, so the quadratic scan beats hashing.
  std::vector<Edge> resolved;
  resolved.reserve(sources.size());
  for (const DependencySource& s : sources) {
    resolved.push_back(Edge{EnsureNode(s.name, s.kind), s.weight});
  }
  std::vector<Edge> desired;
  desired.reserve(resolved.size());
  for (auto it = resolved.rbegin(); it != resolved.rend(); ++it) {
    if (it->to == of || it->weight <= 0.0) continue;
    const NodeId src = it->to;
    const bool seen = std::any_of(
        desired.begin(), desired.end(),
        [src](const Edge& e) { return e.to == src; });
    if (!seen) desired.push_back(*it);
  }
  std::sort(desired.begin(), desired.end(),
            [](const Edge& a, const Edge& b) { return a.to < b.to; });

  std::unique_lock lock(mutex_);
  if (of >= kinds_.size()) return;
  if (!InEdgesEqualLocked(of, desired)) ReplaceInEdgesLocked(of, desired);
  in_fingerprint_[of] = fingerprint;
}

size_t ObjectDependenceGraph::BreaksSimpleLocked(NodeId v) const {
  switch (kinds_[v]) {
    case NodeKind::kUnderlyingData:
      return in_[v].empty() ? 0 : 1;
    case NodeKind::kObject:
      return out_[v].empty() ? 0 : 1;
    case NodeKind::kBoth:
      // An intermediate vertex: the graph is not simple per Fig. 2.
      return in_[v].empty() || out_[v].empty() ? 0 : 1;
  }
  return 0;
}

bool ObjectDependenceGraph::HasEdge(NodeId from, NodeId to) const {
  std::shared_lock lock(mutex_);
  if (from >= out_.size()) return false;
  return std::any_of(out_[from].begin(), out_[from].end(),
                     [to](const Edge& e) { return e.to == to; });
}

NodeKind ObjectDependenceGraph::kind(NodeId id) const {
  std::shared_lock lock(mutex_);
  assert(id < kinds_.size());
  return kinds_[id];
}

std::string_view ObjectDependenceGraph::name(NodeId id) const {
  // StringInterner is internally synchronized and storage is stable.
  return names_.Name(id);
}

size_t ObjectDependenceGraph::node_count() const {
  std::shared_lock lock(mutex_);
  return kinds_.size();
}

size_t ObjectDependenceGraph::edge_count() const {
  std::shared_lock lock(mutex_);
  return edge_count_;
}

bool ObjectDependenceGraph::IsSimple() const {
  std::shared_lock lock(mutex_);
  return !has_custom_weights_ && non_simple_ == 0;
}

}  // namespace nagano::odg
