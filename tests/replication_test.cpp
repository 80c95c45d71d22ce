#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "db/database.h"
#include "replication/replication.h"

namespace nagano::replication {
namespace {

using db::ColumnType;
using db::Database;
using db::Value;

std::unique_ptr<Database> MakeDb(const Clock* clock) {
  db::DatabaseOptions options;
  options.clock = clock;
  return std::make_unique<Database>(std::move(options));
}

// Full change log via the cursor API (genesis cursor, no gaps expected).
std::vector<db::ChangeRecord> FullLog(const Database& db) {
  auto batch = db.ReadChanges(db::ChangeCursor{});
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return {};
  EXPECT_TRUE(batch.value().gap_shards.empty());
  return std::move(batch.value().records);
}

// The paper's replication tree: Nagano master -> Tokyo and Schaumburg;
// Schaumburg -> Columbus and Bethesda; Tokyo is Schaumburg's backup feed.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name :
         {"Nagano", "Tokyo", "Schaumburg", "Columbus", "Bethesda"}) {
      auto database = MakeDb(&clock_);
      ASSERT_TRUE(database
                      ->CreateTable("results", {{"k", ColumnType::kInt},
                                                {"v", ColumnType::kString}})
                      .ok());
      dbs_[name] = std::move(database);
      ASSERT_TRUE(topology_.AddNode(name, dbs_[name].get()).ok());
    }
    ASSERT_TRUE(topology_.SetFeed("Tokyo", "Nagano", FromMillis(50)).ok());
    ASSERT_TRUE(topology_.SetFeed("Schaumburg", "Nagano", FromMillis(120)).ok());
    ASSERT_TRUE(topology_.SetFeed("Columbus", "Schaumburg", FromMillis(30)).ok());
    ASSERT_TRUE(topology_.SetFeed("Bethesda", "Schaumburg", FromMillis(30)).ok());
    ASSERT_TRUE(topology_.SetFailoverFeed("Schaumburg", "Tokyo").ok());
  }

  void Commit(int k) {
    ASSERT_TRUE(dbs_["Nagano"]
                    ->Upsert("results", {Value(int64_t(k)),
                                         Value(std::string("r"))})
                    .ok());
  }

  SimClock clock_{0};
  std::map<std::string, std::unique_ptr<Database>> dbs_;
  ReplicationTopology topology_{&clock_};
};

TEST_F(ReplicationTest, AddNodeValidation) {
  EXPECT_EQ(topology_.AddNode("Nagano", dbs_["Nagano"].get()).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(topology_.AddNode("Null", nullptr).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ReplicationTest, SetFeedValidation) {
  EXPECT_EQ(topology_.SetFeed("Ghost", "Nagano", 0).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(topology_.SetFeed("Tokyo", "Ghost", 0).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(topology_.SetFeed("Tokyo", "Tokyo", 0).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ReplicationTest, FeedCycleRejected) {
  // The master feeding from any of its descendants would loop the tree.
  EXPECT_EQ(topology_.SetFeed("Nagano", "Tokyo", 0).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(topology_.SetFeed("Nagano", "Columbus", 0).code(),
            ErrorCode::kInvalidArgument);
  // Re-parenting within the tree (no cycle) is fine.
  EXPECT_TRUE(topology_.SetFeed("Columbus", "Tokyo", 0).ok());
}

TEST_F(ReplicationTest, LagGatesDelivery) {
  Commit(1);
  // At t=0 nothing has arrived anywhere.
  EXPECT_EQ(topology_.Pump(), 0u);
  EXPECT_EQ(dbs_["Tokyo"]->RowCount("results"), 0u);

  clock_.AdvanceTo(FromMillis(60));  // past Tokyo's 50ms, not Schaumburg's 120
  EXPECT_GT(topology_.Pump(), 0u);
  EXPECT_EQ(dbs_["Tokyo"]->RowCount("results"), 1u);
  EXPECT_EQ(dbs_["Schaumburg"]->RowCount("results"), 0u);

  clock_.AdvanceTo(FromMillis(200));
  topology_.PumpUntilQuiet();
  EXPECT_EQ(dbs_["Schaumburg"]->RowCount("results"), 1u);
  EXPECT_EQ(dbs_["Columbus"]->RowCount("results"), 1u);
  EXPECT_EQ(dbs_["Bethesda"]->RowCount("results"), 1u);
  EXPECT_TRUE(topology_.Converged());
}

TEST_F(ReplicationTest, InOrderExactlyOnce) {
  for (int i = 1; i <= 50; ++i) Commit(i);
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();

  for (const char* name : {"Tokyo", "Schaumburg", "Columbus", "Bethesda"}) {
    const auto log = FullLog(*dbs_[name]);
    ASSERT_EQ(log.size(), 50u) << name;
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seqno, i + 1) << name;  // dense: in order, no dups
    }
  }
}

TEST_F(ReplicationTest, RepeatedPumpIsIdempotent) {
  Commit(1);
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();
  EXPECT_EQ(topology_.Pump(), 0u);
  EXPECT_EQ(dbs_["Tokyo"]->LastSeqno(), 1u);
}

TEST_F(ReplicationTest, DownFeedStallsChildren) {
  Commit(1);
  clock_.AdvanceTo(kSecond);
  ASSERT_TRUE(topology_.MarkDown("Schaumburg").ok());
  topology_.PumpUntilQuiet();
  EXPECT_EQ(dbs_["Tokyo"]->RowCount("results"), 1u);
  EXPECT_EQ(dbs_["Schaumburg"]->RowCount("results"), 0u);
  // Columbus/Bethesda have no failover feed; they stall.
  EXPECT_EQ(dbs_["Columbus"]->RowCount("results"), 0u);

  ASSERT_TRUE(topology_.MarkUp("Schaumburg").ok());
  topology_.PumpUntilQuiet();
  EXPECT_EQ(dbs_["Columbus"]->RowCount("results"), 1u);
}

TEST_F(ReplicationTest, FailoverReparentsToTokyo) {
  // "For reliability and recovery purposes, the Tokyo site was also capable
  // of replicating the database to Schaumburg."
  Commit(1);
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();

  ASSERT_TRUE(topology_.MarkDown("Nagano").ok());
  // New data cannot originate while the master is down in this test, but
  // Schaumburg must re-parent and keep consuming whatever Tokyo has.
  Commit(2);  // (committed before the outage reached the log consumers)
  clock_.AdvanceTo(2 * kSecond);
  topology_.PumpUntilQuiet();

  const auto status = topology_.StatusOf("Schaumburg");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().feed, "Tokyo");
  // Tokyo could not pull (its feed Nagano is down), so both stay at 1.
  EXPECT_EQ(dbs_["Schaumburg"]->LastSeqno(), dbs_["Tokyo"]->LastSeqno());
}

TEST_F(ReplicationTest, ReparentingLosesNothing) {
  for (int i = 1; i <= 10; ++i) Commit(i);
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();

  // Manual re-parent mid-stream: Columbus switches to Tokyo.
  for (int i = 11; i <= 20; ++i) Commit(i);
  ASSERT_TRUE(topology_.SetFeed("Columbus", "Tokyo", FromMillis(80)).ok());
  clock_.AdvanceTo(3 * kSecond);
  topology_.PumpUntilQuiet();

  const auto log = FullLog(*dbs_["Columbus"]);
  ASSERT_EQ(log.size(), 20u);
  for (size_t i = 0; i < log.size(); ++i) EXPECT_EQ(log[i].seqno, i + 1);
}

TEST_F(ReplicationTest, StatusesReportEveryNode) {
  const auto statuses = topology_.Statuses();
  EXPECT_EQ(statuses.size(), 5u);
  bool saw_master = false;
  for (const auto& s : statuses) {
    if (s.name == "Nagano") {
      saw_master = true;
      EXPECT_TRUE(s.feed.empty());
    }
  }
  EXPECT_TRUE(saw_master);
  EXPECT_EQ(topology_.StatusOf("Ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(ReplicationTest, ApplyLagRecorded) {
  Commit(1);
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();
  EXPECT_GT(topology_.apply_lag().count(), 0u);
  // Lag at apply time is at least the link lag (50ms for Tokyo).
  EXPECT_GE(topology_.apply_lag().max(), 50.0);
}

TEST_F(ReplicationTest, ConvergedWithNoTraffic) {
  EXPECT_TRUE(topology_.Converged());
  Commit(1);
  EXPECT_FALSE(topology_.Converged());
  clock_.AdvanceTo(kSecond);
  topology_.PumpUntilQuiet();
  EXPECT_TRUE(topology_.Converged());
}

// Same tree, but the failures come from a deterministic FaultPlan instead
// of MarkDown calls — the link dies underneath a pump, the way a real
// circuit flaps.
class FaultedReplicationTest : public ::testing::Test {
 protected:
  void Init(fault::FaultPlan plan) {
    faults_ = std::make_unique<fault::FaultInjector>(std::move(plan), &clock_);
    ReplicationOptions options;
    options.clock = &clock_;
    options.faults = faults_.get();
    topology_ = std::make_unique<ReplicationTopology>(std::move(options));
    for (const char* name :
         {"Nagano", "Tokyo", "Schaumburg", "Columbus", "Bethesda"}) {
      auto database = MakeDb(&clock_);
      ASSERT_TRUE(database
                      ->CreateTable("results", {{"k", ColumnType::kInt},
                                                {"v", ColumnType::kString}})
                      .ok());
      dbs_[name] = std::move(database);
      ASSERT_TRUE(topology_->AddNode(name, dbs_[name].get()).ok());
    }
    ASSERT_TRUE(topology_->SetFeed("Tokyo", "Nagano", FromMillis(50)).ok());
    ASSERT_TRUE(
        topology_->SetFeed("Schaumburg", "Nagano", FromMillis(120)).ok());
    ASSERT_TRUE(
        topology_->SetFeed("Columbus", "Schaumburg", FromMillis(30)).ok());
    ASSERT_TRUE(
        topology_->SetFeed("Bethesda", "Schaumburg", FromMillis(30)).ok());
    ASSERT_TRUE(topology_->SetFailoverFeed("Schaumburg", "Tokyo").ok());
  }

  void Commit(int k) {
    ASSERT_TRUE(dbs_["Nagano"]
                    ->Upsert("results", {Value(int64_t(k)),
                                         Value(std::string("r"))})
                    .ok());
  }

  // The no-loss/no-duplication invariant: `node`'s change log is exactly
  // seqnos 1..expected, each once, in order.
  void ExpectDenseLog(const char* node, uint64_t expected) {
    const auto log = FullLog(*dbs_[node]);
    ASSERT_EQ(log.size(), expected) << node;
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seqno, i + 1) << node << " position " << i;
    }
  }

  SimClock clock_{0};
  std::map<std::string, std::unique_ptr<Database>> dbs_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<ReplicationTopology> topology_;
};

TEST_F(FaultedReplicationTest, InjectedFeedDeathReparentsWithoutLossOrDup) {
  // The Nagano->Schaumburg link errors for the whole [1s, 2s) window; the
  // backup path from Tokyo stays healthy.
  fault::FaultPlan plan;
  fault::FaultRule link_down;
  link_down.subsystem = "replication";
  link_down.site = "Schaumburg";
  link_down.operation = "pull-from:Nagano";
  link_down.kind = fault::FaultKind::kError;
  link_down.error = ErrorCode::kUnavailable;
  link_down.from = kSecond;
  link_down.until = 2 * kSecond;
  plan.rules = {link_down};
  Init(std::move(plan));

  for (int i = 1; i <= 10; ++i) Commit(i);
  clock_.AdvanceTo(FromMillis(900));
  topology_->PumpUntilQuiet();
  ASSERT_EQ(dbs_["Schaumburg"]->LastSeqno(), 10u);

  // Mid-stream: these commits arrive while the link is dark.
  for (int i = 11; i <= 20; ++i) Commit(i);
  clock_.AdvanceTo(kSecond + FromMillis(500));
  topology_->PumpUntilQuiet();

  // The first failed pull re-parents Schaumburg onto Tokyo, exactly once,
  // and the replicated stream continues through the backup feed.
  const auto status = topology_->StatusOf("Schaumburg");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().feed, "Tokyo");
  EXPECT_EQ(topology_->failovers(), 1u);
  EXPECT_EQ(dbs_["Schaumburg"]->LastSeqno(), 20u);

  clock_.AdvanceTo(3 * kSecond);
  topology_->PumpUntilQuiet();
  EXPECT_TRUE(topology_->Converged());
  for (const char* node : {"Tokyo", "Schaumburg", "Columbus", "Bethesda"}) {
    ExpectDenseLog(node, 20);
  }
  EXPECT_GE(faults_->injected_total(), 1u);
}

TEST_F(FaultedReplicationTest, InjectedGapHealsThroughDataLossResync) {
  // One replicated record to Schaumburg vanishes in flight; the next apply
  // observes the dense-seqno violation (kDataLoss) and the node re-reads
  // the feed's log from its true applied position.
  fault::FaultPlan plan;
  fault::FaultRule gap;
  gap.subsystem = "replication";
  gap.site = "Schaumburg";
  gap.operation = "gap";
  gap.kind = fault::FaultKind::kError;
  gap.error = ErrorCode::kDataLoss;
  gap.max_fires = 1;
  plan.rules = {gap};
  Init(std::move(plan));

  for (int i = 1; i <= 5; ++i) Commit(i);
  clock_.AdvanceTo(kSecond);
  topology_->PumpUntilQuiet();

  EXPECT_GE(topology_->gaps(), 1u);
  EXPECT_EQ(dbs_["Schaumburg"]->LastSeqno(), 5u);
  for (const char* node : {"Tokyo", "Schaumburg", "Columbus", "Bethesda"}) {
    ExpectDenseLog(node, 5);
  }
}

// Replicas apply whole commits, so a replica's own readers and tail never
// see half of one: every commit wake-up a replica rings leaves it at the
// end of a master commit — also while a dropped commit heals through the
// kDataLoss resync path.
TEST_F(FaultedReplicationTest, ReplicasApplyWholeCommitsOnly) {
  fault::FaultPlan plan;
  fault::FaultRule gap;
  gap.subsystem = "replication";
  gap.site = "Schaumburg";
  gap.operation = "gap";
  gap.kind = fault::FaultKind::kError;
  gap.error = ErrorCode::kDataLoss;
  gap.skip_first = 1;
  gap.max_fires = 1;
  plan.rules = {gap};
  Init(std::move(plan));

  const char* const replicas[] = {"Tokyo", "Schaumburg", "Columbus",
                                  "Bethesda"};
  std::map<std::string, std::vector<uint64_t>> seen;
  for (const char* node : replicas) {
    Database* replica = dbs_[node].get();
    replica->SetCommitWakeup(
        [&seen, node, replica] { seen[node].push_back(replica->LastSeqno()); });
  }
  std::set<uint64_t> commit_ends;
  for (int c = 0; c < 5; ++c) {
    db::WriteBatch batch;
    for (int k = 0; k < 3; ++k) {
      batch.Upsert("results", {Value(int64_t(c * 3 + k)),
                               Value("c" + std::to_string(c))});
    }
    ASSERT_TRUE(dbs_["Nagano"]->Commit(std::move(batch)).ok());
    commit_ends.insert(dbs_["Nagano"]->LastSeqno());
  }
  clock_.AdvanceTo(kSecond);
  topology_->PumpUntilQuiet();

  EXPECT_GE(topology_->gaps(), 1u);
  for (const char* node : replicas) {
    ExpectDenseLog(node, 15);
    ASSERT_EQ(seen[node].size(), 5u) << node;
    for (const uint64_t seqno : seen[node]) {
      EXPECT_TRUE(commit_ends.contains(seqno)) << node << " at " << seqno;
    }
    for (const db::ChangeRecord& r : FullLog(*dbs_[node])) {
      EXPECT_EQ(r.batch_end, (r.seqno + 2) / 3 * 3) << node;
    }
  }
}

TEST_F(FaultedReplicationTest, InjectedLagSpikeDelaysButDelivers) {
  fault::FaultPlan plan;
  fault::FaultRule spike;
  spike.subsystem = "replication";
  spike.site = "Tokyo";
  spike.operation = "pull";
  spike.kind = fault::FaultKind::kDelay;
  spike.delay = FromMillis(500);
  plan.rules = {spike};
  Init(std::move(plan));

  Commit(1);
  // Normal link lag is 50 ms, but the spike holds the record back.
  clock_.AdvanceTo(FromMillis(300));
  topology_->Pump();
  EXPECT_EQ(dbs_["Tokyo"]->LastSeqno(), 0u);

  clock_.AdvanceTo(FromMillis(700));
  topology_->PumpUntilQuiet();
  EXPECT_EQ(dbs_["Tokyo"]->LastSeqno(), 1u);
}

}  // namespace
}  // namespace nagano::replication
