// Page renderer with automatic dependency recording.
//
// Every cacheable object at the Olympic site — full pages and shared
// fragments — is produced by a registered generator. While a generator
// runs, it records the underlying data it read (database rows/tables,
// editorial files) and every fragment it spliced; the renderer then syncs
// those observations into the Object Dependence Graph. This is the
// "application program ... responsible for communicating data dependencies
// ... to the cache" of paper §2, automated so the ODG can never drift from
// what a page actually contains.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/object_cache.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/stats.h"
#include "odg/graph.h"
#include "pagegen/template.h"

namespace nagano::pagegen {

// Collects the underlying-data names a generator reads. Names follow the
// convention "<table>:<key>" for a row and "<table>:*" for a whole-table
// scan (e.g. the medal standings page depends on "countries:*").
//
// The optional weight expresses the importance of the dependence (paper
// Fig. 1): a result table is the substance of an event page (high weight)
// while the latest-news box is garnish (low weight). Weights feed the
// quantitative-obsolescence threshold policy; with the default weight the
// ODG stays unweighted.
class DependencyRecorder {
 public:
  void DependsOnData(std::string node_name, double weight = 1.0) {
    data_deps_.emplace_back(std::move(node_name), weight);
  }
  const std::vector<std::pair<std::string, double>>& data_deps() const {
    return data_deps_;
  }

 private:
  std::vector<std::pair<std::string, double>> data_deps_;
};

struct RenderRequest {
  std::string_view page;            // object name, e.g. "/event/12/results"
  DependencyRecorder& deps;         // record data dependencies here
  const FragmentResolver& fragments;  // pass to CompiledTemplate::Render
};

// Produces the page body. Fragment usage is recorded by the resolver; data
// usage by the recorder.
using PageGenerator = std::function<Result<std::string>(const RenderRequest&)>;

struct RendererStats {
  uint64_t pages_rendered = 0;
  uint64_t fragment_cache_hits = 0;  // fragments spliced straight from cache
  uint64_t generator_errors = 0;
  // Pages stored as composition plans (static chunks + fragment refs)
  // instead of flat bodies.
  uint64_t plans_stored = 0;
  // Renders that joined a concurrent in-flight render of the same object
  // instead of running the generator again (single-flight per object name,
  // fragments included: two pages racing on one hot fragment cost one
  // fragment render). Counted at join, so a leader's generator can tell how
  // many followers are waiting on it.
  uint64_t renders_coalesced = 0;
};

struct RendererOptions : OptionsBase {
  // Store pages that splice at least one fragment as composition plans
  // (ordered static chunks + pinned fragment refs, cache::PlanChunk) rather
  // than flat bodies. A data change then re-renders only the touched
  // fragment; every embedding page is patched by fragment swap. false is
  // the whole-page baseline the fanout bench compares against.
  bool compose_pages = true;
  metrics::Options metrics;

  Status Validate() const { return Status::Ok(); }
};

class PageRenderer {
 public:
  PageRenderer(odg::ObjectDependenceGraph* graph, cache::ObjectCache* cache,
               const metrics::Options& metrics_options = {});
  PageRenderer(odg::ObjectDependenceGraph* graph, cache::ObjectCache* cache,
               RendererOptions options);

  // Exact-name generator ("/medals") or prefix family ("/athlete/"). When
  // both match, exact wins; among prefixes, the longest wins.
  void RegisterExact(std::string name, PageGenerator generator);
  void RegisterPrefix(std::string prefix, PageGenerator generator);

  bool CanGenerate(std::string_view page) const;

  // Renders `page`, updates its ODG dependence edges, stores the body in
  // the cache, and returns it. Fragments referenced via {{>...}} are pulled
  // from the cache or rendered (and cached) recursively; include cycles are
  // an error. Concurrent calls for one object share a single generator run
  // (the site's only single-flight) and one shared copy of the body.
  // `joined` (optional) reports whether this call rode another caller's
  // generator run; a follower that got the leader's failure should not
  // start a retry chain of its own. A follower waits for the leader for at
  // most two seconds, then renders on its own.
  Result<std::shared_ptr<const std::string>> RenderAndCache(
      std::string_view page, bool* joined = nullptr);

  // Render without storing — used to check cached pages against a fresh
  // render and to measure raw generation cost.
  Result<std::string> RenderOnly(std::string_view page);

  RendererStats stats() const;

 private:
  struct RenderState {
    std::vector<std::string> stack;  // active renders, for cycle detection
  };

  // One in-progress render that concurrent requests for the same object
  // attach to instead of running the generator again.
  using SharedBody = std::shared_ptr<const std::string>;

  struct RenderFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Result<SharedBody> body{SharedBody()};  // overwritten at publish
  };

  Result<std::string> RenderInternal(std::string_view page, bool store,
                                     RenderState& state);
  // Joins the object's flight, or leads one and runs the generator.
  Result<SharedBody> RenderCoalesced(const std::string& page_name,
                                     const PageGenerator& generator,
                                     RenderState& state, bool* joined);
  // RenderUncoalesced, then stores the result: a composition plan when the
  // page spliced a cached fragment, else the flat body, whose bytes the
  // returned ref aliases.
  Result<SharedBody> RenderAndStore(const std::string& page_name,
                                    const PageGenerator& generator,
                                    RenderState& state);
  // The actual generator run (no single-flight, no store): runs the
  // generator, splits the composition plan out of the flat output into
  // `plan`, syncs the ODG, and returns the marker-free bytes.
  Result<std::string> RenderUncoalesced(const std::string& page_name,
                                        const PageGenerator& generator,
                                        RenderState& state,
                                        std::vector<cache::PlanChunk>& plan);
  // Splits `raw` (generator output with fragment markers) into `plan` and
  // returns the materialized marker-free bytes.
  Result<std::string> ExtractPlan(const std::string& raw, RenderState& state,
                                  std::vector<cache::PlanChunk>& plan);
  const PageGenerator* FindGenerator(std::string_view page) const;

  odg::ObjectDependenceGraph* graph_;
  cache::ObjectCache* cache_;
  RendererOptions options_;

  std::mutex flights_mutex_;
  std::unordered_map<std::string, std::shared_ptr<RenderFlight>> flights_;

  // Registration happens at site construction; every render takes the
  // shared side, so the trigger's re-renders and the serving threads'
  // demand renders never serialize on generator lookup.
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, PageGenerator, std::less<>> exact_;
  std::map<std::string, PageGenerator, std::less<>> prefixes_;

  // Registry-owned sharded counters — bumped on every render, and shared
  // locking would re-serialize concurrent renders. stats() is a thin
  // snapshot view over these cells.
  metrics::Counter* pages_rendered_;
  metrics::Counter* fragment_cache_hits_;
  metrics::Counter* generator_errors_;
  metrics::Counter* plans_stored_;
  metrics::Counter* renders_coalesced_;
};

}  // namespace nagano::pagegen
