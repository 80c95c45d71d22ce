// DUPSCALE — cost of the DUP traversal itself (§2): graph construction is
// amortized over the site's lifetime, but every database change pays one
// affected-set computation. This bench sweeps ODG size and shape with
// google-benchmark:
//
//   * simple bipartite ODGs — fast path vs forced general path (the
//     ablation for the paper's "DUP is considerably easier to implement if
//     the ODG is simple" observation, here: also cheaper);
//   * layered fragment graphs like the Olympic site's (data -> fragments
//     -> pages) at growing scale;
//   * one changed datum in ever larger graphs: the traversal is scoped to
//     the propagation closure, so its cost does not grow with the graph;
//   * weighted graphs with the threshold policy, showing the traversal
//     cost is unchanged while the affected set shrinks.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "odg/dup.h"
#include "odg/graph.h"

using namespace nagano;
using namespace nagano::odg;

namespace {

// data_count underlying-data vertices, each feeding `fanout` of the
// object_count objects.
void BuildBipartite(ObjectDependenceGraph& g, int data_count, int object_count,
                    int fanout, Rng& rng) {
  std::vector<NodeId> data(data_count), objects(object_count);
  for (int i = 0; i < data_count; ++i) {
    data[i] = g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData);
  }
  for (int i = 0; i < object_count; ++i) {
    objects[i] = g.EnsureNode("o" + std::to_string(i), NodeKind::kObject);
  }
  for (int i = 0; i < data_count; ++i) {
    for (int f = 0; f < fanout; ++f) {
      (void)g.AddDependence(data[i],
                            objects[rng.NextBelow(size_t(object_count))]);
    }
  }
}

// Olympic-shaped: data feeds fragments, fragments feed pages, data also
// feeds pages directly.
void BuildLayered(ObjectDependenceGraph& g, int data_count, int frag_count,
                  int page_count, Rng& rng) {
  std::vector<NodeId> data(data_count), frags(frag_count), pages(page_count);
  for (int i = 0; i < data_count; ++i) {
    data[i] = g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData);
  }
  for (int i = 0; i < frag_count; ++i) {
    frags[i] = g.EnsureNode("f" + std::to_string(i), NodeKind::kBoth);
  }
  for (int i = 0; i < page_count; ++i) {
    pages[i] = g.EnsureNode("p" + std::to_string(i), NodeKind::kObject);
  }
  for (int i = 0; i < data_count; ++i) {
    for (int k = 0; k < 3; ++k) {
      (void)g.AddDependence(data[i], frags[rng.NextBelow(size_t(frag_count))]);
      (void)g.AddDependence(data[i], pages[rng.NextBelow(size_t(page_count))]);
    }
  }
  for (int i = 0; i < frag_count; ++i) {
    for (int k = 0; k < 8; ++k) {
      (void)g.AddDependence(frags[i], pages[rng.NextBelow(size_t(page_count))]);
    }
  }
}

void BM_DupSimpleFastPath(benchmark::State& state) {
  ObjectDependenceGraph g;
  Rng rng(1);
  const int n = static_cast<int>(state.range(0));
  BuildBipartite(g, n / 10, n, 5, rng);
  std::vector<NodeId> changed = {0, 1, 2};
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed);
    benchmark::DoNotOptimize(result.affected.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("fast-path");
}
BENCHMARK(BM_DupSimpleFastPath)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DupSimpleGeneralPath(benchmark::State& state) {
  ObjectDependenceGraph g;
  Rng rng(1);
  const int n = static_cast<int>(state.range(0));
  BuildBipartite(g, n / 10, n, 5, rng);
  std::vector<NodeId> changed = {0, 1, 2};
  DupOptions options;
  options.enable_simple_fast_path = false;  // ablation
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed, options);
    benchmark::DoNotOptimize(result.affected.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("general-path-forced");
}
BENCHMARK(BM_DupSimpleGeneralPath)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DupLayeredOlympicShape(benchmark::State& state) {
  ObjectDependenceGraph g;
  Rng rng(2);
  const int pages = static_cast<int>(state.range(0));
  BuildLayered(g, pages / 4, pages / 20, pages, rng);
  std::vector<NodeId> changed = {0, 1};
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed);
    benchmark::DoNotOptimize(result.affected.size());
  }
  state.SetItemsProcessed(state.iterations());
}
// 21,000 dynamic pages was the 1998 site's inventory; sweep past it.
BENCHMARK(BM_DupLayeredOlympicShape)->Arg(2100)->Arg(21000)->Arg(84000);

void BM_DupOneChangeGrowingGraph(benchmark::State& state) {
  // One changed datum in an Olympic-shaped graph of N vertices: DUP works
  // over the propagation closure only, so the cost stays flat as N grows.
  ObjectDependenceGraph g;
  Rng rng(4);
  const int nodes = static_cast<int>(state.range(0));
  BuildLayered(g, nodes / 4, nodes / 20, nodes - nodes / 4 - nodes / 20, rng);
  std::vector<NodeId> changed = {0};
  size_t visited = 0;
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed);
    visited = result.visited;
    benchmark::DoNotOptimize(result.affected.size());
  }
  state.counters["visited"] = static_cast<double>(visited);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DupOneChangeGrowingGraph)->Arg(10000)->Arg(100000);

void BM_DupWideFanoutSingleChange(benchmark::State& state) {
  // One hot datum feeding N pages — the "one result update affected 128
  // pages" case, scaled up.
  ObjectDependenceGraph g;
  const int fanout = static_cast<int>(state.range(0));
  const NodeId d = g.EnsureNode("hot", NodeKind::kUnderlyingData);
  for (int i = 0; i < fanout; ++i) {
    (void)g.AddDependence(
        d, g.EnsureNode("p" + std::to_string(i), NodeKind::kObject));
  }
  std::vector<NodeId> changed = {d};
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed);
    benchmark::DoNotOptimize(result.affected.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DupWideFanoutSingleChange)->Arg(128)->Arg(1024)->Arg(8192);

void BM_DupWeightedThreshold(benchmark::State& state) {
  ObjectDependenceGraph g;
  Rng rng(3);
  const int n = 20000;
  std::vector<NodeId> data(n / 10);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = g.EnsureNode("d" + std::to_string(i), NodeKind::kUnderlyingData);
  }
  for (int i = 0; i < n; ++i) {
    const NodeId o = g.EnsureNode("o" + std::to_string(i), NodeKind::kObject);
    for (int k = 0; k < 4; ++k) {
      (void)g.AddDependence(data[rng.NextBelow(data.size())], o,
                            1.0 + double(rng.NextBelow(9)));
    }
  }
  std::vector<NodeId> changed = {0, 1, 2};
  DupOptions options;
  options.obsolescence_threshold = double(state.range(0)) / 100.0;
  size_t affected = 0;
  for (auto _ : state) {
    auto result = DupEngine::ComputeAffected(g, changed, options);
    affected = result.affected.size();
    benchmark::DoNotOptimize(affected);
  }
  state.counters["affected"] = static_cast<double>(affected);
  state.SetItemsProcessed(state.iterations());
}
// threshold 0%, 10%, 50%: traversal cost flat, affected set shrinks.
BENCHMARK(BM_DupWeightedThreshold)->Arg(0)->Arg(10)->Arg(50);

void BM_OdgDependencyRecording(benchmark::State& state) {
  // Cost of the renderer's per-render ODG sync in the steady state: a
  // re-render records the same ~10 dependencies as last time, so
  // SetInEdges stops at the fingerprint comparison.
  ObjectDependenceGraph g;
  const NodeId page = g.EnsureNode("page", NodeKind::kObject);
  std::vector<std::string> names;
  for (int i = 0; i < 10; ++i) names.push_back("d" + std::to_string(i));
  std::vector<DependencySource> sources;
  for (const std::string& name : names) {
    sources.push_back({name, NodeKind::kUnderlyingData, 1.0});
  }
  g.SetInEdges(page, sources);
  for (auto _ : state) g.SetInEdges(page, sources);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OdgDependencyRecording);

}  // namespace

BENCHMARK_MAIN();
