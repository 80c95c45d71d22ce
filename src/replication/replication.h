// Database replication tree (paper §3, Figs. 4-5).
//
// "From the master database, data was replicated to the three SP2
// complexes in Tokyo and the four complexes in Schaumburg. From Schaumburg
// the data was again replicated to the three machines in Bethesda and the
// three in Columbus. For reliability and recovery purposes, the Tokyo site
// was also capable of replicating the database to Schaumburg."
//
// Model: each node owns a Database. A child pulls its feed's change log
// through a per-shard cursor (ReadChanges(ChangeCursor)) and applies
// whole commits whose commit time plus the link lag has passed — a
// deterministic store-and-forward model under SimClock — so a replica's
// own readers and tail never see half an update. ApplyReplicated()
// enforces dense *per-shard* seqnos, so delivery is provably in-order and
// exactly-once within each shard, and a gap in one shard's stream wedges
// only that shard (and commits touching it) while the others keep
// flowing. A node whose feed is down stalls
// until the feed recovers or the operator (or auto-failover) re-parents it
// to a backup feed — the Tokyo -> Schaumburg recovery path.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/stats.h"
#include "db/database.h"

namespace nagano::replication {

struct ReplicaStatus {
  std::string name;
  std::string feed;          // empty for the master / detached nodes
  uint64_t applied_seqno = 0;
  bool up = true;
  uint64_t records_applied = 0;
};

struct ReplicationOptions : OptionsBase {
  const Clock* clock = nullptr;  // defaults to RealClock
  // Consulted per child node during Pump() — site is the child's name:
  //   {"replication", <child>, "pull"}  kError = the feed link is down
  //     (auto-failover to the backup feed if configured, else stall);
  //     kDelay = a lag spike added to the link for this round.
  //   {"replication", <child>, "pull-from:<feed>"}  same, but scoped to the
  //     link from one named feed — the failed-over path stays usable.
  //   {"replication", <child>, "gap"}   drop one due commit on the floor so
  //     the next apply observes a dense-seqno violation (kDataLoss) and the
  //     recovery path re-reads from the child's true applied seqno.
  fault::FaultInjector* faults = nullptr;
  metrics::Options metrics;

  Status Validate() const { return Status::Ok(); }
};

class ReplicationTopology {
 public:
  explicit ReplicationTopology(ReplicationOptions options);
  // Legacy convenience signature; equivalent to options carrying `clock`.
  explicit ReplicationTopology(const Clock* clock)
      : ReplicationTopology(WithClock(clock)) {}

  // Registers a node. The database must already contain the schema (every
  // replica starts from the same empty schema; the log replays content).
  Status AddNode(std::string name, db::Database* database);

  // Re-binds an existing node to a new Database object — the warm-restart
  // path: a crashed site recovers a fresh Database from its WAL and rejoins
  // under its old name, keeping its feed, failover feed, and lag. The next
  // pull starts after the recovered database's own LastSeqno().
  Status ReattachNode(std::string_view name, db::Database* database);

  // child pulls from parent with the given one-way lag. Re-invoking
  // re-parents the child (its next pull starts after its own last applied
  // seqno, so no records are lost or duplicated).
  Status SetFeed(std::string_view child, std::string_view parent, TimeNs lag);

  // Automatic re-parent target if the child's feed goes down.
  Status SetFailoverFeed(std::string_view child, std::string_view backup);

  Status MarkDown(std::string_view name);
  Status MarkUp(std::string_view name);

  // Pulls every due record across the tree. Call repeatedly as simulated
  // time advances. Returns the number of records applied this round.
  size_t Pump();

  // Pump until no node applies anything (with feeds up and lag elapsed,
  // this reaches convergence).
  size_t PumpUntilQuiet(size_t max_rounds = 1000);

  // True when every up node has applied its feed's full log.
  bool Converged() const;

  std::vector<ReplicaStatus> Statuses() const;
  Result<ReplicaStatus> StatusOf(std::string_view name) const;

  // Replication lag observed at apply time (commit -> apply, simulated).
  const Histogram& apply_lag() const { return apply_lag_; }

  // Fault-path observability (also exported as nagano_replication_*_total).
  uint64_t failovers() const { return failovers_->value(); }  // auto re-parents
  uint64_t gaps() const { return gaps_->value(); }      // kDataLoss observed
  uint64_t stalls() const { return stalls_->value(); }  // rounds lost to pulls

 private:
  struct Node {
    std::string name;
    db::Database* database = nullptr;
    std::string feed;
    std::string failover_feed;
    TimeNs lag = 0;
    bool up = true;
    uint64_t records_applied = 0;
    // Pull position in the feed's per-shard change feed. Invalid after
    // attach / re-parent / warm restart; re-derived lazily from the child
    // database's own applied watermarks on the next pump.
    db::ChangeCursor cursor;
    bool cursor_valid = false;
  };

  static ReplicationOptions WithClock(const Clock* clock) {
    ReplicationOptions options;
    options.clock = clock;
    return options;
  }

  Node* FindNode(std::string_view name);
  const Node* FindNode(std::string_view name) const;
  size_t PumpNode(Node& node);

  const Clock* clock_;
  fault::FaultInjector* faults_;
  std::map<std::string, Node, std::less<>> nodes_;
  Histogram apply_lag_;
  metrics::Counter* failovers_;
  metrics::Counter* gaps_;
  metrics::Counter* stalls_;
};

}  // namespace nagano::replication
