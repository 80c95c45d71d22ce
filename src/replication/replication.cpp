#include "replication/replication.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace nagano::replication {

ReplicationTopology::ReplicationTopology(ReplicationOptions options)
    : clock_(options.clock ? options.clock : &RealClock::Instance()),
      faults_(options.faults) {
  ValidateOrDie(options, "ReplicationOptions");
  const auto scope = metrics::Scope::Resolve(options.metrics, "replication");
  failovers_ = scope.GetCounter("nagano_replication_failovers_total",
                                "automatic re-parents to the backup feed");
  gaps_ = scope.GetCounter("nagano_replication_gaps_total",
                           "dense-seqno violations observed at apply");
  stalls_ = scope.GetCounter("nagano_replication_stalls_total",
                             "pump rounds lost to an unreachable feed");
}

Status ReplicationTopology::AddNode(std::string name, db::Database* database) {
  if (database == nullptr) {
    return InvalidArgumentError("AddNode: null database");
  }
  auto [it, inserted] = nodes_.try_emplace(name);
  if (!inserted) return AlreadyExistsError("AddNode: duplicate " + name);
  it->second.name = name;
  it->second.database = database;
  return Status::Ok();
}

Status ReplicationTopology::ReattachNode(std::string_view name,
                                         db::Database* database) {
  if (database == nullptr) {
    return InvalidArgumentError("ReattachNode: null database");
  }
  Node* n = FindNode(name);
  if (n == nullptr) {
    return NotFoundError("ReattachNode: no node " + std::string(name));
  }
  n->database = database;
  n->cursor_valid = false;  // re-derive from the recovered store's watermarks
  return Status::Ok();
}

ReplicationTopology::Node* ReplicationTopology::FindNode(std::string_view name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const ReplicationTopology::Node* ReplicationTopology::FindNode(
    std::string_view name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

Status ReplicationTopology::SetFeed(std::string_view child,
                                    std::string_view parent, TimeNs lag) {
  Node* c = FindNode(child);
  if (c == nullptr) return NotFoundError("SetFeed: no node " + std::string(child));
  if (FindNode(parent) == nullptr) {
    return NotFoundError("SetFeed: no node " + std::string(parent));
  }
  if (child == parent) return InvalidArgumentError("SetFeed: self-feed");
  // Reject cycles: walk up from the proposed parent.
  for (const Node* p = FindNode(parent); p != nullptr && !p->feed.empty();
       p = FindNode(p->feed)) {
    if (p->feed == child) return InvalidArgumentError("SetFeed: feed cycle");
  }
  c->feed = std::string(parent);
  c->lag = lag;
  c->cursor_valid = false;  // new feed, new cursor
  return Status::Ok();
}

Status ReplicationTopology::SetFailoverFeed(std::string_view child,
                                            std::string_view backup) {
  Node* c = FindNode(child);
  if (c == nullptr) {
    return NotFoundError("SetFailoverFeed: no node " + std::string(child));
  }
  if (FindNode(backup) == nullptr) {
    return NotFoundError("SetFailoverFeed: no node " + std::string(backup));
  }
  c->failover_feed = std::string(backup);
  return Status::Ok();
}

Status ReplicationTopology::MarkDown(std::string_view name) {
  Node* n = FindNode(name);
  if (n == nullptr) return NotFoundError("MarkDown: no node " + std::string(name));
  n->up = false;
  return Status::Ok();
}

Status ReplicationTopology::MarkUp(std::string_view name) {
  Node* n = FindNode(name);
  if (n == nullptr) return NotFoundError("MarkUp: no node " + std::string(name));
  n->up = true;
  return Status::Ok();
}

size_t ReplicationTopology::PumpNode(Node& node) {
  if (!node.up || node.feed.empty()) return 0;

  Node* feed = FindNode(node.feed);
  assert(feed != nullptr);
  // An injected pull error models the feed *link* being down, which is
  // indistinguishable from the feed itself being down from where the child
  // sits — both take the same recovery path. Operation "pull" covers every
  // pull the node makes; "pull-from:<feed>" targets one specific link, so a
  // plan can cut the primary path while the backup stays usable (the paper's
  // Tokyo-feeds-Schaumburg scenario).
  auto pull = fault::Decide(faults_, "replication", node.name, "pull");
  const auto link = fault::Decide(faults_, "replication", node.name,
                                  "pull-from:" + node.feed);
  if (pull.status.ok() && !link.status.ok()) pull.status = link.status;
  pull.delay += link.delay;
  if (!feed->up || !pull.status.ok()) {
    // The Tokyo-can-feed-Schaumburg recovery path: re-parent to the backup
    // feed if one is configured and alive.
    Node* backup = node.failover_feed.empty() ? nullptr
                                              : FindNode(node.failover_feed);
    if (backup == nullptr || !backup->up || backup == &node ||
        node.feed == node.failover_feed) {
      stalls_->Increment();
      return 0;
    }
    node.feed = node.failover_feed;
    feed = backup;
    failovers_->Increment();
    node.cursor_valid = false;  // re-derive against the backup feed
  }

  if (!node.cursor_valid) {
    // Derive the pull position from the child's own applied watermarks.
    // With mirrored shard layouts the child's per-shard seqnos ARE the
    // feed's; across layouts (an unsharded snapshot joining a sharded
    // feed) fall back to locating the child's global watermark in the
    // feed's logs.
    if (node.database->shards() == feed->database->shards()) {
      node.cursor = node.database->AppliedCursor();
    } else {
      node.cursor = feed->database->CursorAtGlobal(node.database->LastSeqno());
    }
    node.cursor_valid = true;
  }

  const TimeNs now = clock_->Now();
  const TimeNs lag = node.lag + pull.delay;  // injected delay = lag spike
  auto batch_or = feed->database->ReadChanges(node.cursor, 256);
  if (!batch_or.ok()) {
    // The feed's change log itself is unreadable this round; retry later.
    if (batch_or.status().code() == ErrorCode::kDataLoss) gaps_->Increment();
    stalls_->Increment();
    return 0;
  }
  db::ChangeBatch& batch = batch_or.value();
  // Shards the feed truncated past our position (after a checkpoint): the
  // cursor holds still there — recovery is catching up out of band (warm
  // restart) — while the healthy shards below keep flowing.
  if (!batch.gap_shards.empty()) gaps_->Increment(batch.gap_shards.size());
  size_t applied = 0;
  // A shard that observes a gap mid-round wedges for the rest of the round
  // (its cursor stays put, so the next pump re-reads from the hole) without
  // blocking its siblings; so does every shard of a commit that touches a
  // wedged one, since commits apply whole or not at all.
  std::vector<bool> wedged(feed->database->shards(), false);
  const std::vector<db::ChangeRecord>& records = batch.records;
  for (size_t begin = 0; begin < records.size();) {
    // One commit: its records are contiguous up to its batch_end.
    size_t end = begin + 1;
    while (end < records.size() &&
           records[end].seqno <= records[begin].batch_end) {
      ++end;
    }
    const std::span<const db::ChangeRecord> commit(&records[begin],
                                                   end - begin);
    begin = end;
    if (commit.front().committed_at + lag > now) break;  // not yet arrived
    const auto wedge = [&] {
      for (const db::ChangeRecord& r : commit) {
        if (r.shard < wedged.size()) wedged[r.shard] = true;
      }
    };
    if (std::any_of(commit.begin(), commit.end(),
                    [&](const db::ChangeRecord& r) {
                      return r.shard < wedged.size() && wedged[r.shard];
                    })) {
      wedge();
      continue;
    }
    if (!fault::Check(faults_, "replication", node.name, "gap").ok()) {
      // Drop this commit on the floor without advancing its shards'
      // cursors: the next commit on those shards observes the hole as
      // kDataLoss, and the following pump re-reads the dropped one — the §3
      // resynchronisation path, scoped to the shards it touched.
      continue;
    }
    Status s = node.database->ApplyReplicated(commit);
    if (!s.ok()) {
      if (s.code() == ErrorCode::kDataLoss) gaps_->Increment();
      wedge();
      continue;
    }
    for (const db::ChangeRecord& record : commit) {
      if (node.cursor.positions.size() <= record.shard) {
        node.cursor.positions.resize(record.shard + 1, 0);
      }
      node.cursor.positions[record.shard] = record.shard_seqno;
      apply_lag_.Add(ToMillis(now - record.committed_at));
      ++node.records_applied;
      ++applied;
    }
  }
  return applied;
}

size_t ReplicationTopology::Pump() {
  size_t applied = 0;
  for (auto& [_, node] : nodes_) applied += PumpNode(node);
  return applied;
}

size_t ReplicationTopology::PumpUntilQuiet(size_t max_rounds) {
  size_t total = 0;
  for (size_t round = 0; round < max_rounds; ++round) {
    const size_t applied = Pump();
    total += applied;
    if (applied == 0) break;
  }
  return total;
}

bool ReplicationTopology::Converged() const {
  for (const auto& [_, node] : nodes_) {
    if (!node.up || node.feed.empty()) continue;
    const Node* feed = FindNode(node.feed);
    if (feed == nullptr || !feed->up) continue;
    if (node.database->LastSeqno() < feed->database->LastSeqno()) return false;
  }
  return true;
}

std::vector<ReplicaStatus> ReplicationTopology::Statuses() const {
  std::vector<ReplicaStatus> out;
  out.reserve(nodes_.size());
  for (const auto& [_, node] : nodes_) {
    out.push_back(ReplicaStatus{node.name, node.feed,
                                node.database->LastSeqno(), node.up,
                                node.records_applied});
  }
  return out;
}

Result<ReplicaStatus> ReplicationTopology::StatusOf(std::string_view name) const {
  const Node* node = FindNode(name);
  if (node == nullptr) {
    return NotFoundError("StatusOf: no node " + std::string(name));
  }
  return ReplicaStatus{node->name, node->feed, node->database->LastSeqno(),
                       node->up, node->records_applied};
}

}  // namespace nagano::replication
