#include "pagegen/renderer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace nagano::pagegen {
namespace {

// Sentinels the composition-mode fragment resolver returns in place of the
// fragment body. Generators splice the resolver's result verbatim (raw
// {{{...}}} substitution), so the flat output can be split back into static
// chunks and fragment refs afterwards. The bytes contain control characters
// that never occur in rendered content.
constexpr std::string_view kFragMarkOpen = "\x01\x02";
constexpr std::string_view kFragMarkClose = "\x02\x01";

// How long a coalesced render waits for the leading flight before giving up
// and rendering on its own. A cross-thread include cycle (two leaders
// mutually waiting on each other's fragments) hits this, and the fallback
// render then reports the cycle through the ordinary stack check; so does a
// generator slower than this, which splits its herd.
constexpr std::chrono::seconds kFlightFallback{2};

RendererOptions WithMetrics(const metrics::Options& metrics_options) {
  RendererOptions options;
  options.metrics = metrics_options;
  return options;
}

}  // namespace

PageRenderer::PageRenderer(odg::ObjectDependenceGraph* graph,
                           cache::ObjectCache* cache,
                           const metrics::Options& metrics_options)
    : PageRenderer(graph, cache, WithMetrics(metrics_options)) {}

PageRenderer::PageRenderer(odg::ObjectDependenceGraph* graph,
                           cache::ObjectCache* cache, RendererOptions options)
    : graph_(graph),
      cache_(cache),
      options_(ValidateOrDie(options, "RendererOptions")) {
  assert(graph_ != nullptr);
  assert(cache_ != nullptr);
  const auto scope = metrics::Scope::Resolve(options_.metrics, "renderer");
  pages_rendered_ = scope.GetCounter("nagano_renderer_pages_rendered_total",
                                     "successful page/fragment renders");
  fragment_cache_hits_ =
      scope.GetCounter("nagano_renderer_fragment_cache_hits_total",
                       "fragments spliced straight from cache");
  generator_errors_ = scope.GetCounter("nagano_renderer_generator_errors_total",
                                       "generator invocations that failed");
  plans_stored_ = scope.GetCounter("nagano_renderer_plans_stored_total",
                                   "pages stored as composition plans");
  renders_coalesced_ =
      scope.GetCounter("nagano_renderer_renders_coalesced_total",
                       "renders that joined a concurrent flight of the same "
                       "object");
}

void PageRenderer::RegisterExact(std::string name, PageGenerator generator) {
  std::unique_lock lock(registry_mutex_);
  exact_[std::move(name)] = std::move(generator);
}

void PageRenderer::RegisterPrefix(std::string prefix, PageGenerator generator) {
  std::unique_lock lock(registry_mutex_);
  prefixes_[std::move(prefix)] = std::move(generator);
}

const PageGenerator* PageRenderer::FindGenerator(std::string_view page) const {
  // std::map node pointers are stable and generators are never erased, so
  // the returned pointer outlives the lock.
  std::shared_lock lock(registry_mutex_);
  if (auto it = exact_.find(page); it != exact_.end()) return &it->second;
  // Longest matching prefix. Every registered prefix of `probe` sorts at
  // or below it, and a longer one above a shorter one, so the greatest
  // entry <= probe is the answer when it is a prefix. When it is not, it
  // diverges from probe at some offset, and every candidate left is a
  // prefix of probe's bytes before that offset: shrink probe and repeat.
  // Each step is one O(log n) search and probe strictly shrinks.
  std::string_view probe = page;
  for (;;) {
    auto it = prefixes_.upper_bound(probe);
    if (it == prefixes_.begin()) return nullptr;
    --it;
    const std::string_view candidate = it->first;
    if (probe.starts_with(candidate)) return &it->second;
    probe = probe.substr(
        0, static_cast<size_t>(
               std::mismatch(candidate.begin(), candidate.end(), probe.begin(),
                             probe.end())
                   .first -
               candidate.begin()));
  }
}

bool PageRenderer::CanGenerate(std::string_view page) const {
  return FindGenerator(page) != nullptr;
}

Result<std::shared_ptr<const std::string>> PageRenderer::RenderAndCache(
    std::string_view page, bool* joined) {
  if (joined != nullptr) *joined = false;
  const PageGenerator* generator = FindGenerator(page);
  if (generator == nullptr) {
    return NotFoundError("no generator for " + std::string(page));
  }
  RenderState state;
  return RenderCoalesced(std::string(page), *generator, state, joined);
}

Result<std::string> PageRenderer::RenderOnly(std::string_view page) {
  RenderState state;
  return RenderInternal(page, /*store=*/false, state);
}

Result<std::string> PageRenderer::RenderInternal(std::string_view page,
                                                 bool store,
                                                 RenderState& state) {
  const std::string page_name(page);
  if (std::find(state.stack.begin(), state.stack.end(), page_name) !=
      state.stack.end()) {
    return FailedPreconditionError("fragment include cycle at " + page_name);
  }
  const PageGenerator* generator = FindGenerator(page);
  if (generator == nullptr) {
    return NotFoundError("no generator for " + page_name);
  }

  // RenderOnly keeps fresh-render semantics, so only caching renders
  // coalesce.
  if (!store) {
    std::vector<cache::PlanChunk> plan;
    return RenderUncoalesced(page_name, *generator, state, plan);
  }
  Result<SharedBody> shared =
      RenderCoalesced(page_name, *generator, state, /*joined=*/nullptr);
  if (!shared.ok()) return shared.status();
  return *shared.value();
}

Result<PageRenderer::SharedBody> PageRenderer::RenderCoalesced(
    const std::string& page_name, const PageGenerator& generator,
    RenderState& state, bool* joined) {
  std::shared_ptr<RenderFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(page_name);
    if (it == flights_.end()) {
      flight = std::make_shared<RenderFlight>();
      flights_.emplace(page_name, flight);
      leader = true;
    } else {
      flight = it->second;
      renders_coalesced_->Increment();
    }
  }

  if (leader) {
    Result<SharedBody> body = RenderAndStore(page_name, generator, state);
    {
      // Retire the flight before publishing: late arrivals start a fresh
      // render against the now-populated cache instead of joining a
      // finished one.
      std::lock_guard<std::mutex> lock(flights_mutex_);
      auto it = flights_.find(page_name);
      if (it != flights_.end() && it->second == flight) flights_.erase(it);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->body = body;
      flight->done = true;
    }
    flight->cv.notify_all();
    return body;
  }

  {
    std::unique_lock<std::mutex> lock(flight->mutex);
    if (flight->cv.wait_for(lock, kFlightFallback,
                            [&] { return flight->done; })) {
      if (joined != nullptr) *joined = true;
      return flight->body;
    }
  }
  // Leader stuck (cross-thread include cycle, or a generator slower than
  // the fallback): render independently; the stack check in the recursive
  // render reports genuine cycles.
  return RenderAndStore(page_name, generator, state);
}

Result<PageRenderer::SharedBody> PageRenderer::RenderAndStore(
    const std::string& page_name, const PageGenerator& generator,
    RenderState& state) {
  std::vector<cache::PlanChunk> plan;
  Result<std::string> body =
      RenderUncoalesced(page_name, generator, state, plan);
  if (!body.ok()) return body.status();
  const bool has_fragment_chunk =
      std::any_of(plan.begin(), plan.end(),
                  [](const cache::PlanChunk& c) { return c.is_fragment(); });
  if (has_fragment_chunk) {
    cache_->PutPlan(page_name, std::move(plan));
    plans_stored_->Increment();
    return std::make_shared<const std::string>(std::move(body).value());
  }
  // One body per flat render: the caller gets an alias of the stored
  // object's bytes, not a second copy.
  return cache::BodyRef(cache_->Put(page_name, std::move(body).value()));
}

Result<std::string> PageRenderer::RenderUncoalesced(
    const std::string& page_name, const PageGenerator& generator,
    RenderState& state, std::vector<cache::PlanChunk>& plan) {
  state.stack.push_back(page_name);

  DependencyRecorder recorder;
  std::vector<std::string> fragments_used;
  uint64_t fragment_hits = 0;
  const bool compose = options_.compose_pages;

  // Fragments come from the cache when present; otherwise they are rendered
  // (and cached) recursively, sharing this render's cycle-detection stack.
  // In composition mode the resolver only *ensures* the fragment is cached
  // and hands the generator an opaque marker; the flat output is split on
  // the markers into this page's composition plan afterwards.
  FragmentResolver resolver =
      [&](std::string_view fragment) -> Result<std::string> {
    fragments_used.emplace_back(fragment);
    if (!compose) {
      if (auto cached = cache_->Peek(fragment)) {
        ++fragment_hits;
        return cached->body;
      }
      return RenderInternal(fragment, /*store=*/true, state);
    }
    if (cache_->Contains(fragment)) {
      ++fragment_hits;
    } else {
      Result<std::string> rendered =
          RenderInternal(fragment, /*store=*/true, state);
      if (!rendered.ok()) return rendered;
    }
    std::string marker(kFragMarkOpen);
    marker += fragment;
    marker += kFragMarkClose;
    return marker;
  };

  RenderRequest request{page_name, recorder, resolver};
  Result<std::string> body = generator(request);

  if (body.ok() && compose && !fragments_used.empty()) {
    // Still on the stack: the rare inline-fallback re-render inside
    // ExtractPlan shares this render's cycle detection.
    body = ExtractPlan(body.value(), state, plan);
  }

  state.stack.pop_back();

  if (!body.ok()) {
    generator_errors_->Increment();
    return body;
  }

  // Sync the ODG: this page's in-edges become exactly what this render
  // observed. Kind widening turns a page that others embed into kBoth
  // automatically. SetInEdges returns after a fingerprint comparison when
  // the dependencies are unchanged — the steady state of re-renders — so a
  // re-render resolves no dependency names and takes no write lock.
  const odg::NodeId page_node =
      graph_->EnsureNode(page_name, odg::NodeKind::kObject);
  std::vector<odg::DependencySource> sources;
  sources.reserve(recorder.data_deps().size() + fragments_used.size());
  for (const auto& [dep, weight] : recorder.data_deps()) {
    sources.push_back({dep, odg::NodeKind::kUnderlyingData, weight});
  }
  for (const std::string& frag : fragments_used) {
    sources.push_back({frag, odg::NodeKind::kBoth, 1.0});
  }
  graph_->SetInEdges(page_node, sources);

  pages_rendered_->Increment();
  if (fragment_hits != 0) fragment_cache_hits_->Increment(fragment_hits);
  return body;
}

Result<std::string> PageRenderer::ExtractPlan(
    const std::string& raw, RenderState& state,
    std::vector<cache::PlanChunk>& plan) {
  // Static bytes since the last fragment chunk; each flush copies them
  // into an exact-size shared string and keeps the buffer for the next run.
  std::string pending;
  const auto flush_static = [&] {
    if (pending.empty()) return;
    cache::PlanChunk chunk;
    chunk.text = std::make_shared<const std::string>(pending);
    pending.clear();
    plan.push_back(std::move(chunk));
  };
  size_t pos = 0;
  while (pos < raw.size()) {
    const size_t open = raw.find(kFragMarkOpen, pos);
    if (open == std::string::npos) break;
    const size_t name_at = open + kFragMarkOpen.size();
    const size_t close = raw.find(kFragMarkClose, name_at);
    if (close == std::string::npos) break;
    pending.append(raw, pos, open - pos);
    const std::string_view fragment(raw.data() + name_at, close - name_at);
    pos = close + kFragMarkClose.size();

    auto source = cache_->Peek(fragment);
    if (source != nullptr && !source->is_plan()) {
      flush_static();
      cache::PlanChunk chunk;
      chunk.fragment = std::make_shared<const std::string>(fragment);
      chunk.fragment_version = source->version;
      chunk.source = std::move(source);
      plan.push_back(std::move(chunk));
      continue;
    }
    // The fragment vanished between the resolver and here (a concurrent
    // invalidation) or is itself plan-shaped — inline its bytes as static text
    // so chunk refs stay flat, single-span views.
    Result<std::string> inlined =
        source != nullptr ? Result<std::string>(source->Materialize())
                          : RenderInternal(fragment, /*store=*/false, state);
    if (!inlined.ok()) return inlined;
    pending += inlined.value();
  }
  pending.append(raw, pos, raw.size() - pos);
  flush_static();

  std::string materialized;
  size_t total = 0;
  for (const cache::PlanChunk& chunk : plan) total += chunk.bytes().size();
  materialized.reserve(total);
  for (const cache::PlanChunk& chunk : plan) materialized += chunk.bytes();
  return materialized;
}

RendererStats PageRenderer::stats() const {
  RendererStats out;
  out.pages_rendered = pages_rendered_->value();
  out.fragment_cache_hits = fragment_cache_hits_->value();
  out.generator_errors = generator_errors_->value();
  out.plans_stored = plans_stored_->value();
  out.renders_coalesced = renders_coalesced_->value();
  return out;
}

}  // namespace nagano::pagegen
