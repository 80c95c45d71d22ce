// DispatcherCluster — a live three-tier topology on real sockets: one
// dispatch::Dispatcher fronting N backend nodes, each a full publishing
// pipeline (core::ServingSite) behind its own HTTP front end
// (server::HttpFrontEnd) with a WAL for crash/upgrade recovery.
//
// This is the deployable shape of the paper's serving site — Network
// Dispatcher in front, SP2 frames behind — and the harness the rolling-
// upgrade drill runs on: RollingRestart(i) announces the drain through the
// backend's own /healthz (ServingSite::SetDraining -> the advisor steers
// new connections away), drains the backend's connections cleanly (zero
// failed requests), warm-restarts the backend from its WAL on the same
// port, waits for catch-up, and reinstates it — while the other backends
// keep answering every request. The dispatcher hands each client
// connection to a backend's HTTP server in-process, so the harness
// detaches a node's server from the dispatcher before destroying it and
// attaches the new one when the node comes back.
//
// Feed discipline: there is no replication tree between the backends; the
// harness itself fans each scoring commit out to every node
// (RecordResultAll). Consequently the feed must be quiet while a node is
// down — RecordResultAll refuses (FailedPrecondition) mid-restart rather
// than silently letting the restarted node diverge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "core/serving_site.h"
#include "dispatch/dispatcher.h"
#include "pagegen/olympic.h"
#include "server/serving.h"
#include "wal/wal.h"

namespace nagano::dispatch {

struct ClusterOptions : OptionsBase {
  // Content every backend builds and serves (identical across nodes —
  // byte-identical answers are the rolling-upgrade invariant).
  pagegen::OlympicConfig olympic;
  size_t backends = 3;
  // Root for the per-backend WAL directories: <wal_root>/b<k>. Required —
  // warm restart recovers each node from its own log.
  std::string wal_root;
  // Accept threads for the dispatcher (backends run one reactor each).
  size_t front_reactors = 1;
  // Dispatcher knobs (probe cadence, drain grace...). The accept threads
  // and backend list are filled in by the harness.
  DispatcherOptions dispatch;
  // Injector shared by the dispatcher tier and every backend pipeline.
  fault::FaultInjector* faults = nullptr;
  metrics::Options metrics;

  Status Validate() const;
};

class DispatcherCluster {
 public:
  explicit DispatcherCluster(ClusterOptions options);
  ~DispatcherCluster();

  DispatcherCluster(const DispatcherCluster&) = delete;
  DispatcherCluster& operator=(const DispatcherCluster&) = delete;

  // Builds and starts every backend (site + HTTP front end + /healthz
  // admin surface), then the dispatcher over them.
  Status Start();
  void Stop();

  // The dispatcher's client-facing port.
  uint16_t port() const { return dispatcher_->port(); }
  Dispatcher& dispatcher() { return *dispatcher_; }
  size_t backend_count() const { return nodes_.size(); }
  // The backend's pipeline (null while that node is mid-restart).
  core::ServingSite* site(size_t i) { return nodes_[i]->site.get(); }
  // The backend's stable HTTP port (same across restarts).
  uint16_t backend_port(size_t i) const { return nodes_[i]->port; }

  // Applies one scoring commit to every backend and returns once all have
  // committed it. FailedPrecondition while any node is down (see feed
  // discipline above).
  Status RecordResultAll(int64_t event_id, int64_t rank, int64_t athlete_id,
                         double score);
  // Blocks until every live backend's cache reflects its commits.
  void QuiesceAll();

  // The rolling-upgrade step for one backend:
  //   1. SetDraining(true): its /healthz fails, the advisor steers away.
  //   2. Dispatcher::Drain(i): its connections close after their next
  //      response or once idle; clients reconnect elsewhere, zero fail.
  //   3. Detach it from the dispatcher; stop the front end and pipeline.
  //   4. ServingSite::WarmRestart from the WAL, catch up to the watermark,
  //      prefetch, restart the trigger; HTTP front end back on the same
  //      port.
  //   5. Dispatcher::Attach + Reinstate(i) + WaitHealthy.
  Status RollingRestart(size_t i);

  // Crash simulation: detach the backend and stop its front end and
  // pipeline with NO drain — its client connections are closed and the
  // clients' stale-socket retry reconnects through the dispatcher to a
  // live backend; the advisor's probes see the death the way they would a
  // real crash.
  Status KillBackend(size_t i);
  // Warm-restarts a killed backend from its WAL (same port), attaches and
  // reinstates it with the dispatcher; blocks until it is routable again.
  Status ReviveBackend(size_t i);

  uint64_t restarts() const { return restarts_; }

 private:
  struct Node {
    std::unique_ptr<wal::WriteAheadLog> wal;
    std::unique_ptr<core::ServingSite> site;
    std::unique_ptr<server::HttpFrontEnd> front;
    uint16_t port = 0;  // stable across restarts
    std::string name;   // "b<k>"
  };

  wal::WalOptions WalOptionsFor(const Node& node) const;
  core::SiteOptions SiteOptionsFor(const Node& node) const;
  // Builds (or rebuilds, warm=true) one node and brings its front end up.
  Status StartNode(Node& node, bool warm);

  ClusterOptions options_;
  metrics::MetricRegistry* registry_ = nullptr;
  std::string instance_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Dispatcher> dispatcher_;
  uint64_t restarts_ = 0;
  bool started_ = false;
};

}  // namespace nagano::dispatch
