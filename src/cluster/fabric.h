// The serving fabric (paper §4): four geographically distributed complexes
// of SP2 frames behind Network Dispatchers, addressed through MSIPR —
// twelve single-IP-routed addresses cycled by round-robin DNS and
// advertised by every complex with OSPF costs.
//
// Failover chain implemented exactly as §4.2 describes:
//   web node down      -> advisor pulls it; dispatcher picks another node
//   SP2 frame down     -> its nodes vanish from the pools
//   dispatcher down    -> routers deliver to the address's secondary
//                         dispatcher (higher OSPF cost) in the same complex
//   complex down       -> the lowest-cost advertiser elsewhere wins
// — "elegant degradation": every failure is absorbed and traffic is
// redistributed to what still works.
//
// Traffic shifting: operators stop advertising some of a complex's twelve
// addresses, moving load "in 8 1/3% increments".
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/net.h"
#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"

namespace nagano::cluster {

struct ComplexConfig {
  std::string name;
  int frames = 3;            // SP2 systems at the site
  int nodes_per_frame = 8;   // serving uniprocessors per SP2
  int dispatchers = 4;       // Network Dispatcher boxes
};

struct FabricOptions : OptionsBase {
  std::vector<ComplexConfig> complexes;
  int num_addresses = 12;                    // MSIPR SIPR addresses
  int secondary_cost_penalty = 10;           // OSPF cost bump for secondaries
  TimeNs retry_penalty = FromMillis(400);    // hit on an undetected-dead node

  // Region cost/RTT table; must list the same complexes, in the same order,
  // as `complexes`.
  RegionCosts costs;
  // Simulated time source for queueing. Required (no RealClock default: the
  // fabric is a simulator component).
  const Clock* clock = nullptr;
  // kWindow rules under subsystem "fabric" drive scripted outages: the site
  // is the complex name and the operation names the component —
  //   "complex"              the whole complex
  //   "frame:<f>"            one SP2 frame
  //   "dispatcher:<d>"       one Network Dispatcher
  //   "node:<f>.<n>"         one serving node
  // Route() syncs window edges to Fail*/Recover* calls, so a FaultPlan
  // schedule produces the §4.2 failover chain without hand-written
  // drill code. Null = injection off.
  fault::FaultInjector* faults = nullptr;
  // Registry + instance label for the nagano_fabric_* metrics.
  metrics::Options metrics;

  Status Validate() const;

  // The paper's deployment: 13 SP2s — four in Schaumburg, three elsewhere.
  // Fill in costs/clock before constructing the fabric.
  static FabricOptions Olympic();
  // Same, with the cost table and clock filled in.
  static FabricOptions Olympic(RegionCosts costs, const Clock* clock);
};

struct RequestOutcome {
  bool served = false;
  size_t complex_index = SIZE_MAX;
  size_t region = SIZE_MAX;
  TimeNs response_time = 0;  // rtt + retries + queueing + cpu + transfer
  TimeNs queue_delay = 0;
  int retries = 0;           // dead-node / dead-dispatcher re-routes
};

struct FabricStats {
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  std::vector<uint64_t> served_by_complex;

  double Availability() const {
    return requests == 0 ? 1.0
                         : static_cast<double>(served) /
                               static_cast<double>(requests);
  }
};

class ServingFabric {
 public:
  explicit ServingFabric(FabricOptions options);

  // Routes one request originating in `region` (index into the cost
  // table). cpu_cost is the server-side service time (from the paper's
  // cost model — hit vs miss); bytes/link model the client-side transfer.
  RequestOutcome Route(size_t region, TimeNs cpu_cost, size_t bytes,
                       const LinkClass& link);

  // --- failure injection -------------------------------------------------
  Status FailNode(std::string_view complex_name, int frame, int node);
  Status RecoverNode(std::string_view complex_name, int frame, int node);
  Status FailFrame(std::string_view complex_name, int frame);
  Status RecoverFrame(std::string_view complex_name, int frame);
  Status FailDispatcher(std::string_view complex_name, int dispatcher);
  Status RecoverDispatcher(std::string_view complex_name, int dispatcher);
  Status FailComplex(std::string_view complex_name);
  Status RecoverComplex(std::string_view complex_name);

  // --- MSIPR traffic shifting ---------------------------------------------
  // Stops/starts advertising `address` from `complex_name`. Shifting one
  // address moves 1/12 of that complex's new traffic.
  Status SetAdvertised(std::string_view complex_name, int address,
                       bool advertised);

  // --- introspection -------------------------------------------------------
  FabricStats stats() const;
  size_t num_complexes() const { return complexes_.size(); }
  const std::string& complex_name(size_t i) const;
  // Mean node utilization (busy time / elapsed) at a complex.
  double Utilization(size_t complex_index, TimeNs elapsed) const;

 private:
  struct Node {
    bool up = true;
    bool advisor_sees_up = true;  // dispatcher's view (advisor state)
    TimeNs busy_until = 0;
    TimeNs busy_total = 0;
    uint64_t served = 0;
  };
  struct Frame {
    bool up = true;
    std::vector<Node> nodes;
  };
  struct Dispatcher {
    bool up = true;
    std::vector<int> primary_addresses;
    std::vector<int> secondary_addresses;
  };
  struct Complex {
    std::string name;
    bool up = true;
    std::vector<Frame> frames;
    std::vector<Dispatcher> dispatchers;
    std::vector<bool> advertised;  // per address
    // Registry cell labelled {complex="<name>"} — per-site traffic split.
    metrics::Counter* served = nullptr;
  };

  Complex* FindComplex(std::string_view name);

  // Applies pending fault-plan window edges (fail on entry, recover on
  // exit) before routing. No-op without an injector.
  void SyncFaults();
  void ApplyWindow(const fault::FaultRule& rule, bool active);

  // Lowest-cost (complex, dispatcher) advertising `address` for `region`,
  // excluding complexes in `excluded` (bitmask). Returns false if none.
  bool SelectTarget(size_t region, int address, uint32_t excluded,
                    size_t* complex_out, size_t* dispatcher_out) const;

  // Least-loaded alive node at a complex, advisor view; nullptr if none.
  // May flip advisor state and charge retries.
  Node* PickNode(Complex& cx, int* retries);

  FabricOptions options_;
  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::vector<Complex> complexes_;
  uint64_t dns_counter_ = 0;  // round-robin DNS
  // Last observed state of each fault-plan window rule (edge detection).
  std::unordered_map<const fault::FaultRule*, bool> window_state_;

  // Registry cells behind the legacy stats() view.
  metrics::Counter* requests_;
  metrics::Counter* served_;
  metrics::Counter* failed_;
  metrics::Counter* retries_;
};

}  // namespace nagano::cluster
