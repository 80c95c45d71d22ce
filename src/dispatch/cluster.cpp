#include "dispatch/cluster.h"

#include <chrono>
#include <thread>
#include <utility>

namespace nagano::dispatch {

Status ClusterOptions::Validate() const {
  if (backends == 0) {
    return InvalidArgumentError("cluster needs at least one backend");
  }
  if (wal_root.empty()) {
    return InvalidArgumentError("wal_root is required (warm restart recovers "
                                "each backend from its own log)");
  }
  if (front_reactors == 0) {
    return InvalidArgumentError("front_reactors must be >= 1");
  }
  return Status::Ok();
}

DispatcherCluster::DispatcherCluster(ClusterOptions options)
    : options_(std::move(options)) {
  ValidateOrDie(options_, "ClusterOptions");
  metrics::Scope scope = metrics::Scope::Resolve(options_.metrics, "dcluster");
  registry_ = scope.registry;
  instance_ = scope.labels.empty() ? "dcluster" : scope.labels[0].second;
  nodes_.reserve(options_.backends);
  for (size_t i = 0; i < options_.backends; ++i) {
    auto node = std::make_unique<Node>();
    node->name = "b" + std::to_string(i);
    nodes_.push_back(std::move(node));
  }
}

DispatcherCluster::~DispatcherCluster() { Stop(); }

wal::WalOptions DispatcherCluster::WalOptionsFor(const Node& node) const {
  wal::WalOptions wal_options;
  wal_options.dir = options_.wal_root + "/" + node.name;
  wal_options.faults = options_.faults;
  wal_options.metrics.registry = registry_;
  wal_options.metrics.instance = instance_ + "/" + node.name + "-wal";
  return wal_options;
}

core::SiteOptions DispatcherCluster::SiteOptionsFor(const Node& node) const {
  core::SiteOptions site_options;
  site_options.olympic = options_.olympic;
  site_options.faults = options_.faults;
  site_options.metrics.registry = registry_;
  site_options.metrics.instance = instance_ + "/" + node.name;
  return site_options;
}

Status DispatcherCluster::StartNode(Node& node, bool warm) {
  auto wal_or = wal::WriteAheadLog::Open(WalOptionsFor(node));
  if (!wal_or.ok()) return wal_or.status();
  node.wal = std::move(wal_or.value());

  core::SiteOptions site_options = SiteOptionsFor(node);
  site_options.wal = node.wal.get();
  auto site_or = warm ? core::ServingSite::WarmRestart(std::move(site_options))
                      : core::ServingSite::Create(std::move(site_options));
  if (!site_or.ok()) return site_or.status();
  node.site = std::move(site_or.value());
  if (warm) {
    // Standalone catch-up: the node's own WAL carried every commit it ever
    // applied, so the recovered watermark is the target.
    node.site->SetRejoinTarget(node.site->db().LastSeqno());
  }
  if (auto prefetched = node.site->PrefetchAll(); !prefetched.ok()) {
    return prefetched.status();
  }
  node.site->StartTrigger();

  server::FrontEndOptions front_options;
  front_options.http.port = node.port;  // 0 on first launch, pinned after
  front_options.http.metrics.registry = registry_;
  front_options.http.metrics.instance = instance_ + "/" + node.name + "-http";
  auto front = std::make_unique<server::HttpFrontEnd>(&node.site->page_server(),
                                                      std::move(front_options));
  front->EnableAdmin(registry_,
                     [site = node.site.get()] { return site->Health(); });
  if (Status s = front->Start(); !s.ok()) return s;
  node.front = std::move(front);
  node.port = node.front->port();
  return Status::Ok();
}

Status DispatcherCluster::Start() {
  if (started_) return Status::Ok();
  for (auto& node : nodes_) {
    if (Status s = StartNode(*node, /*warm=*/false); !s.ok()) return s;
  }
  std::vector<BackendAddress> addresses;
  addresses.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    addresses.push_back(
        {"127.0.0.1", node->port, node->name, &node->front->server()});
  }
  DispatcherOptions dispatch_options = options_.dispatch;
  dispatch_options.faults = options_.faults;
  dispatch_options.metrics.registry = registry_;
  dispatch_options.metrics.instance = instance_;
  dispatch_options.accept_threads = options_.front_reactors;
  dispatcher_ =
      std::make_unique<Dispatcher>(std::move(addresses), dispatch_options);
  if (Status s = dispatcher_->Start(); !s.ok()) return s;
  started_ = true;
  return Status::Ok();
}

void DispatcherCluster::Stop() {
  if (!started_) return;
  started_ = false;
  if (dispatcher_ != nullptr) dispatcher_->Stop();
  for (auto& node : nodes_) {
    if (node->front != nullptr) node->front->Stop();
    if (node->site != nullptr) node->site->StopTrigger();
  }
}

Status DispatcherCluster::RecordResultAll(int64_t event_id, int64_t rank,
                                          int64_t athlete_id, double score) {
  for (const auto& node : nodes_) {
    if (node->site == nullptr) {
      return FailedPreconditionError(
          node->name + " is mid-restart; the feed must stay quiet until it "
                       "rejoins (no replication tree in this harness)");
    }
  }
  for (auto& node : nodes_) {
    if (Status s =
            node->site->RecordResult(event_id, rank, athlete_id, score);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

void DispatcherCluster::QuiesceAll() {
  for (auto& node : nodes_) {
    if (node->site != nullptr) node->site->Quiesce();
  }
}

Status DispatcherCluster::KillBackend(size_t i) {
  if (i >= nodes_.size()) return InvalidArgumentError("no such backend");
  Node& node = *nodes_[i];
  if (!started_ || node.site == nullptr || node.front == nullptr) {
    return FailedPreconditionError(node.name + " is not serving");
  }
  // No handoff may reach the server once it is destroyed.
  if (Status s = dispatcher_->Detach(i); !s.ok()) return s;
  node.front->Stop();
  node.front.reset();
  node.site->StopTrigger();
  node.site.reset();
  node.wal.reset();
  return Status::Ok();
}

Status DispatcherCluster::ReviveBackend(size_t i) {
  if (i >= nodes_.size()) return InvalidArgumentError("no such backend");
  Node& node = *nodes_[i];
  if (node.site != nullptr) {
    return FailedPreconditionError(node.name + " is not down");
  }
  if (Status s = StartNode(node, /*warm=*/true); !s.ok()) return s;
  if (Status s = dispatcher_->Attach(i, &node.front->server()); !s.ok()) {
    return s;
  }
  if (Status s = dispatcher_->Reinstate(i); !s.ok()) return s;
  return dispatcher_->WaitHealthy(i, 5 * kSecond);
}

Status DispatcherCluster::RollingRestart(size_t i) {
  if (i >= nodes_.size()) return InvalidArgumentError("no such backend");
  Node& node = *nodes_[i];
  if (!started_ || node.site == nullptr || node.front == nullptr) {
    return FailedPreconditionError(node.name + " is not serving");
  }

  // 1. Announce: /healthz starts failing, so the advisor stops assigning
  //    new connections within one probe interval.
  node.site->SetDraining(true);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(2 * options_.dispatch.probe_interval));

  // 2. Clean drain — every connection handed to the node closes after its
  //    next response (or once idle) and reconnects elsewhere; none fails.
  if (Status s = dispatcher_->Drain(i); !s.ok()) {
    node.site->SetDraining(false);
    (void)dispatcher_->Reinstate(i);
    return s;
  }

  // 3. Take the node down, detached first so no handoff reaches the
  //    destroyed server. The WAL handle closes with the site's pipeline
  //    stopped, leaving a clean (or deliberately torn, under fault
  //    injection) log for recovery.
  if (Status s = dispatcher_->Detach(i); !s.ok()) return s;
  node.site->StopTrigger();
  node.front->Stop();
  node.front.reset();
  node.site.reset();
  node.wal.reset();

  // 4. Warm restart from the log, on the same port.
  if (Status s = StartNode(node, /*warm=*/true); !s.ok()) return s;
  if (!node.site->CaughtUp()) {
    return InternalError(node.name + " failed to catch up from its own WAL");
  }

  // 5. Back into rotation.
  if (Status s = dispatcher_->Attach(i, &node.front->server()); !s.ok()) {
    return s;
  }
  if (Status s = dispatcher_->Reinstate(i); !s.ok()) return s;
  if (Status s = dispatcher_->WaitHealthy(i, 5 * kSecond); !s.ok()) return s;
  ++restarts_;
  return Status::Ok();
}

}  // namespace nagano::dispatch
