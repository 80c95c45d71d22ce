#include "cluster/fabric.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace nagano::cluster {

FabricOptions FabricOptions::Olympic() {
  FabricOptions options;
  options.complexes = {
      {"Schaumburg", 4, 8, 4},
      {"Columbus", 3, 8, 4},
      {"Bethesda", 3, 8, 4},
      {"Tokyo", 3, 8, 4},
  };
  return options;
}

Status FabricOptions::Validate() const {
  if (complexes.empty()) {
    return InvalidArgumentError("FabricOptions.complexes must be non-empty");
  }
  for (const ComplexConfig& cc : complexes) {
    if (cc.name.empty()) {
      return InvalidArgumentError("ComplexConfig.name must be non-empty");
    }
    if (cc.frames < 1 || cc.nodes_per_frame < 1 || cc.dispatchers < 1) {
      return InvalidArgumentError("complex " + cc.name +
                                  " needs >= 1 frame, node and dispatcher");
    }
  }
  if (num_addresses < 1) {
    return InvalidArgumentError("FabricOptions.num_addresses must be >= 1");
  }
  if (retry_penalty < 0) {
    return InvalidArgumentError("FabricOptions.retry_penalty must be >= 0");
  }
  if (clock == nullptr) {
    return InvalidArgumentError("FabricOptions.clock is required");
  }
  if (costs.num_complexes() != complexes.size()) {
    return InvalidArgumentError(
        "FabricOptions.costs must cover exactly the configured complexes");
  }
  for (size_t ci = 0; ci < complexes.size(); ++ci) {
    if (costs.complex_name(ci) != complexes[ci].name) {
      return InvalidArgumentError(
          "cost table order must match complex order (mismatch at " +
          complexes[ci].name + ")");
    }
  }
  return Status::Ok();
}

FabricOptions FabricOptions::Olympic(RegionCosts costs, const Clock* clock) {
  FabricOptions options = Olympic();
  options.costs = std::move(costs);
  options.clock = clock;
  return options;
}

ServingFabric::ServingFabric(FabricOptions options)
    : options_((ValidateOrDie(options, "FabricOptions"), std::move(options))),
      clock_(options_.clock),
      faults_(options_.faults) {
  const auto scope = metrics::Scope::Resolve(options_.metrics, "fabric");
  requests_ =
      scope.GetCounter("nagano_fabric_requests_total", "requests routed");
  served_ = scope.GetCounter("nagano_fabric_served_total", "requests served");
  failed_ = scope.GetCounter("nagano_fabric_failed_total",
                             "requests no complex could serve");
  retries_ = scope.GetCounter("nagano_fabric_retries_total",
                              "dead-node / dead-dispatcher re-routes");
  complexes_.reserve(options_.complexes.size());
  for (size_t ci = 0; ci < options_.complexes.size(); ++ci) {
    const ComplexConfig& cc = options_.complexes[ci];
    Complex cx;
    cx.name = cc.name;
    cx.served = scope.registry->GetCounter(
        "nagano_fabric_served_by_complex_total",
        scope.With("complex", cc.name), "requests served per complex");
    cx.frames.resize(static_cast<size_t>(cc.frames));
    for (auto& frame : cx.frames) {
      frame.nodes.resize(static_cast<size_t>(cc.nodes_per_frame));
    }
    cx.dispatchers.resize(static_cast<size_t>(cc.dispatchers));
    cx.advertised.assign(static_cast<size_t>(options_.num_addresses), true);
    // Paper §4.2: with 4 dispatchers and 12 addresses, each box is primary
    // for 3 addresses and secondary for 2 others.
    const int per_primary =
        (options_.num_addresses + cc.dispatchers - 1) / cc.dispatchers;
    for (int d = 0; d < cc.dispatchers; ++d) {
      for (int k = 0; k < per_primary; ++k) {
        const int addr = d * per_primary + k;
        if (addr < options_.num_addresses) {
          cx.dispatchers[static_cast<size_t>(d)].primary_addresses.push_back(addr);
        }
      }
      for (int k = 0; k < 2; ++k) {
        const int addr = (d * per_primary + per_primary + k) % options_.num_addresses;
        cx.dispatchers[static_cast<size_t>(d)].secondary_addresses.push_back(addr);
      }
    }
    complexes_.push_back(std::move(cx));
  }
}

ServingFabric::Complex* ServingFabric::FindComplex(std::string_view name) {
  for (auto& cx : complexes_) {
    if (cx.name == name) return &cx;
  }
  return nullptr;
}

bool ServingFabric::SelectTarget(size_t region, int address, uint32_t excluded,
                                 size_t* complex_out,
                                 size_t* dispatcher_out) const {
  // Lowest-cost advertisers of this address; ties collect into a candidate
  // set and the address picks among them. Equal-cost complexes (the three
  // US sites seen from inside the US) thus split the twelve addresses
  // between them — the multipath behaviour MSIPR relies on; without it a
  // failed complex would dump its whole load on a single neighbour.
  int best_cost = INT32_MAX;
  struct Candidate {
    size_t complex_index;
    size_t dispatcher;
  };
  Candidate candidates[8];
  size_t num_candidates = 0;

  for (size_t ci = 0; ci < complexes_.size(); ++ci) {
    if (excluded & (1u << ci)) continue;
    const Complex& cx = complexes_[ci];
    if (!cx.up || !cx.advertised[static_cast<size_t>(address)]) continue;
    const int base = options_.costs.Cost(region, ci);
    // Primary dispatcher for this address, then secondaries at a penalty —
    // the "differing costs ... depending on whether the Net Dispatcher was
    // a primary or secondary server of an IP address".
    int cx_cost = INT32_MAX;
    size_t cx_dispatcher = SIZE_MAX;
    for (size_t di = 0; di < cx.dispatchers.size(); ++di) {
      const Dispatcher& d = cx.dispatchers[di];
      if (!d.up) continue;
      int cost = INT32_MAX;
      if (std::find(d.primary_addresses.begin(), d.primary_addresses.end(),
                    address) != d.primary_addresses.end()) {
        cost = base;
      } else if (std::find(d.secondary_addresses.begin(),
                           d.secondary_addresses.end(),
                           address) != d.secondary_addresses.end()) {
        cost = base + options_.secondary_cost_penalty;
      }
      if (cost < cx_cost) {
        cx_cost = cost;
        cx_dispatcher = di;
      }
    }
    if (cx_dispatcher == SIZE_MAX) continue;
    if (cx_cost < best_cost) {
      best_cost = cx_cost;
      num_candidates = 0;
    }
    if (cx_cost == best_cost && num_candidates < std::size(candidates)) {
      candidates[num_candidates++] = Candidate{ci, cx_dispatcher};
    }
  }
  if (num_candidates == 0) return false;
  const Candidate& chosen =
      candidates[static_cast<size_t>(address) % num_candidates];
  *complex_out = chosen.complex_index;
  *dispatcher_out = chosen.dispatcher;
  return true;
}

ServingFabric::Node* ServingFabric::PickNode(Complex& cx, int* retries) {
  // Least busy_until among nodes the advisors believe alive. If the pick
  // turns out dead (failure not yet detected), charge a retry, flip the
  // advisor state — "the advisors immediately pulled it from the
  // distribution list" — and pick again.
  for (;;) {
    TimeNs best_busy = INT64_MAX;
    Node* best = nullptr;
    for (auto& frame : cx.frames) {
      if (!frame.up) continue;
      for (auto& node : frame.nodes) {
        if (!node.advisor_sees_up) continue;
        if (node.busy_until < best_busy) {
          best_busy = node.busy_until;
          best = &node;
        }
      }
    }
    if (best == nullptr) return nullptr;
    if (best->up) return best;
    best->advisor_sees_up = false;
    ++(*retries);
  }
}

void ServingFabric::ApplyWindow(const fault::FaultRule& rule, bool active) {
  // rule.site names the complex, rule.operation the component within it.
  const std::string_view op = rule.operation;
  int a = -1, b = -1;
  if (op == "complex") {
    if (active) (void)FailComplex(rule.site);
    else (void)RecoverComplex(rule.site);
  } else if (std::sscanf(rule.operation.c_str(), "frame:%d", &a) == 1) {
    if (active) (void)FailFrame(rule.site, a);
    else (void)RecoverFrame(rule.site, a);
  } else if (std::sscanf(rule.operation.c_str(), "dispatcher:%d", &a) == 1) {
    if (active) (void)FailDispatcher(rule.site, a);
    else (void)RecoverDispatcher(rule.site, a);
  } else if (std::sscanf(rule.operation.c_str(), "node:%d.%d", &a, &b) == 2) {
    if (active) (void)FailNode(rule.site, a, b);
    else (void)RecoverNode(rule.site, a, b);
  }
  // Unknown operations are ignored: the plan may script components of
  // other fabrics sharing the injector.
}

void ServingFabric::SyncFaults() {
  if (faults_ == nullptr) return;
  for (const fault::FaultRule* rule : faults_->WindowRules("fabric")) {
    const bool active =
        faults_->ActiveWindow("fabric", rule->site, rule->operation);
    bool& prev = window_state_[rule];  // default-constructed false
    if (active == prev) continue;
    prev = active;
    ApplyWindow(*rule, active);
  }
}

RequestOutcome ServingFabric::Route(size_t region, TimeNs cpu_cost,
                                    size_t bytes, const LinkClass& link) {
  SyncFaults();
  RequestOutcome out;
  out.region = region;
  requests_->Increment();

  // Round-robin DNS hands the client one of the twelve addresses.
  const int address =
      static_cast<int>(dns_counter_++ % static_cast<uint64_t>(options_.num_addresses));

  uint32_t excluded = 0;
  int retries = 0;
  const TimeNs now = clock_->Now();

  for (size_t attempt = 0; attempt < complexes_.size(); ++attempt) {
    size_t ci = SIZE_MAX, di = SIZE_MAX;
    if (!SelectTarget(region, address, excluded, &ci, &di)) break;
    Complex& cx = complexes_[ci];

    Node* picked = PickNode(cx, &retries);
    if (picked == nullptr) {
      // No alive node behind this complex — exclude it and re-route, as the
      // routers would after the site stopped advertising.
      excluded |= (1u << ci);
      ++retries;
      continue;
    }
    Node& node = *picked;

    const TimeNs start = std::max(now, node.busy_until);
    out.queue_delay = start - now;
    node.busy_until = start + cpu_cost;
    node.busy_total += cpu_cost;
    ++node.served;
    cx.served->Increment();

    out.served = true;
    out.complex_index = ci;
    out.retries = retries;
    out.response_time = options_.costs.Rtt(region, ci) +
                        retries * options_.retry_penalty + out.queue_delay +
                        cpu_cost + TransferTime(link, bytes);
    served_->Increment();
    retries_->Increment(static_cast<uint64_t>(retries));
    return out;
  }

  out.retries = retries;
  failed_->Increment();
  retries_->Increment(static_cast<uint64_t>(retries));
  return out;
}

// --- failure injection --------------------------------------------------------

Status ServingFabric::FailNode(std::string_view complex_name, int frame,
                               int node) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (frame < 0 || static_cast<size_t>(frame) >= cx->frames.size() || node < 0 ||
      static_cast<size_t>(node) >= cx->frames[size_t(frame)].nodes.size()) {
    return InvalidArgumentError("node index out of range");
  }
  cx->frames[size_t(frame)].nodes[size_t(node)].up = false;
  return Status::Ok();
}

Status ServingFabric::RecoverNode(std::string_view complex_name, int frame,
                                  int node) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (frame < 0 || static_cast<size_t>(frame) >= cx->frames.size() || node < 0 ||
      static_cast<size_t>(node) >= cx->frames[size_t(frame)].nodes.size()) {
    return InvalidArgumentError("node index out of range");
  }
  Node& n = cx->frames[size_t(frame)].nodes[size_t(node)];
  n.up = true;
  n.advisor_sees_up = true;
  n.busy_until = clock_->Now();
  return Status::Ok();
}

Status ServingFabric::FailFrame(std::string_view complex_name, int frame) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (frame < 0 || static_cast<size_t>(frame) >= cx->frames.size()) {
    return InvalidArgumentError("frame index out of range");
  }
  cx->frames[size_t(frame)].up = false;
  return Status::Ok();
}

Status ServingFabric::RecoverFrame(std::string_view complex_name, int frame) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (frame < 0 || static_cast<size_t>(frame) >= cx->frames.size()) {
    return InvalidArgumentError("frame index out of range");
  }
  Frame& f = cx->frames[size_t(frame)];
  f.up = true;
  for (auto& node : f.nodes) {
    node.advisor_sees_up = node.up;
    node.busy_until = clock_->Now();
  }
  return Status::Ok();
}

Status ServingFabric::FailDispatcher(std::string_view complex_name,
                                     int dispatcher) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (dispatcher < 0 ||
      static_cast<size_t>(dispatcher) >= cx->dispatchers.size()) {
    return InvalidArgumentError("dispatcher index out of range");
  }
  cx->dispatchers[size_t(dispatcher)].up = false;
  return Status::Ok();
}

Status ServingFabric::RecoverDispatcher(std::string_view complex_name,
                                        int dispatcher) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (dispatcher < 0 ||
      static_cast<size_t>(dispatcher) >= cx->dispatchers.size()) {
    return InvalidArgumentError("dispatcher index out of range");
  }
  cx->dispatchers[size_t(dispatcher)].up = true;
  return Status::Ok();
}

Status ServingFabric::FailComplex(std::string_view complex_name) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  cx->up = false;
  return Status::Ok();
}

Status ServingFabric::RecoverComplex(std::string_view complex_name) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  cx->up = true;
  for (auto& frame : cx->frames) {
    for (auto& node : frame.nodes) {
      node.advisor_sees_up = node.up;
      node.busy_until = clock_->Now();
    }
  }
  return Status::Ok();
}

Status ServingFabric::SetAdvertised(std::string_view complex_name, int address,
                                    bool advertised) {
  Complex* cx = FindComplex(complex_name);
  if (!cx) return NotFoundError("no complex " + std::string(complex_name));
  if (address < 0 || address >= options_.num_addresses) {
    return InvalidArgumentError("address out of range");
  }
  cx->advertised[static_cast<size_t>(address)] = advertised;
  return Status::Ok();
}

// --- introspection -------------------------------------------------------------

FabricStats ServingFabric::stats() const {
  FabricStats s;
  s.requests = requests_->value();
  s.served = served_->value();
  s.failed = failed_->value();
  s.retries = retries_->value();
  s.served_by_complex.reserve(complexes_.size());
  for (const auto& cx : complexes_) {
    s.served_by_complex.push_back(cx.served->value());
  }
  return s;
}

const std::string& ServingFabric::complex_name(size_t i) const {
  return complexes_[i].name;
}

double ServingFabric::Utilization(size_t complex_index, TimeNs elapsed) const {
  if (elapsed <= 0) return 0.0;
  const Complex& cx = complexes_[complex_index];
  TimeNs busy = 0;
  size_t nodes = 0;
  for (const auto& frame : cx.frames) {
    for (const auto& node : frame.nodes) {
      busy += node.busy_total;
      ++nodes;
    }
  }
  if (nodes == 0) return 0.0;
  return static_cast<double>(busy) /
         (static_cast<double>(elapsed) * static_cast<double>(nodes));
}

}  // namespace nagano::cluster
