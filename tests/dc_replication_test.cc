// DC redo-log shipping + hot-standby failover (PR 8): exercises the
// replication stack at three levels.
//   * DcRedoLog: durable-only shipping, replica ack accounting, lag.
//   * DataComponent: replica role gates, ApplyReplicated ordering (gap
//     rejection, overlap skip), Promote fencing, RejoinAsReplica
//     truncation, RecoverFromLocalLog restoring pre-crash state from
//     the DC's own disk files.
//   * Cluster: replicas_per_dc standbys, each fed by a RedoShipper —
//     ship → lag → crash primary → FailoverDc (suffix resend only) →
//     RejoinReplica, diffed against a driver model, plus a replica
//     crash mid-catch-up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dc/data_component.h"
#include "kernel/cluster.h"
#include "kernel/redo_shipper.h"
#include "storage/stable_store.h"

namespace untx {
namespace {

constexpr TableId kTableA = 1;
constexpr TableId kTableB = 2;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

using Model = std::map<std::pair<TableId, std::string>, std::string>;

/// Waits until the predicate holds or ~5s pass.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Scans every table through TC 0 into a model for diffing.
Model SnapshotState(Cluster* cluster) {
  Model state;
  for (TableId table : {kTableA, kTableB}) {
    std::vector<std::pair<std::string, std::string>> rows;
    EXPECT_TRUE(cluster->tc(0)
                    ->ScanShared(table, "", "", 0, ReadFlavor::kDirty, &rows)
                    .ok());
    for (const auto& [k, v] : rows) state[{table, k}] = v;
  }
  return state;
}

ClusterOptions ReplicatedOptions(int replicas) {
  ClusterOptions options;
  options.num_dcs = 2;
  options.replicas_per_dc = replicas;
  options.transport = TransportKind::kDirect;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  TcSpec spec;
  spec.options.tc_id = 1;
  spec.options.resend_interval_ms = 5;
  spec.options.insert_phantom_protection = false;
  options.tcs.push_back(spec);
  return options;
}

// ---- DataComponent-level stream protocol ------------------------------------

TEST(DcReplicationTest, ReplicaRejectsGapsAndSkipsOverlap) {
  StableStoreOptions store_options;
  store_options.page_size = 1024;
  store_options.trailer_capacity = 128;
  DataComponentOptions dc_options;
  dc_options.redo_log_enabled = true;

  StableStore primary_store(store_options);
  DataComponent primary(&primary_store, dc_options);
  ASSERT_TRUE(primary.Initialize().ok());

  StableStore replica_store(store_options);
  DataComponent replica(&replica_store, dc_options);
  ASSERT_TRUE(replica.Initialize().ok());
  replica.StartAsReplica();
  EXPECT_EQ(replica.role(), DcRole::kReplica);

  // A replica answers no TC traffic.
  OperationRequest read;
  read.tc_id = 1;
  read.lsn = 1;
  read.op = OpType::kRead;
  read.table_id = kTableA;
  read.key = "x";
  EXPECT_TRUE(replica.Perform(read).status.IsCrashed());

  // Drive some ops into the primary so its redo log has durable entries.
  primary.redo_log()->set_replication_enabled(true);
  OperationRequest create;
  create.tc_id = 1;
  create.lsn = 1;
  create.op = OpType::kCreateTable;
  create.table_id = kTableA;
  ASSERT_TRUE(primary.Perform(create).status.ok());
  Lsn lsn = 2;
  for (int i = 0; i < 10; ++i) {
    OperationRequest op;
    op.tc_id = 1;
    op.lsn = lsn++;
    op.op = OpType::kUpsert;
    op.table_id = kTableA;
    op.key = Key(i);
    op.value = "v" + std::to_string(i);
    ASSERT_TRUE(primary.Perform(op).status.ok());
  }
  const uint64_t end = primary.redo_log()->end();
  ASSERT_GT(end, 0u);
  ASSERT_EQ(primary.redo_log()->durable_end(), end)
      << "acked ops must already be durable (force-before-reply)";

  // A batch that does not extend the replica densely is rejected.
  std::vector<RedoEntry> entries;
  ASSERT_EQ(primary.redo_log()->ReadFrom(3, 4, &entries), 3u);
  ReplicaEntriesMessage gap;
  gap.from_rlsn = 3;
  gap.primary_end = end;
  gap.entries = entries;
  EXPECT_TRUE(replica.ApplyReplicated(gap).IsInvalidArgument());

  // The dense prefix applies; a resend of the same batch is a no-op.
  entries.clear();
  ASSERT_EQ(primary.redo_log()->ReadFrom(1, 1024, &entries), 1u);
  ReplicaEntriesMessage all;
  all.from_rlsn = 1;
  all.primary_end = end;
  all.entries = entries;
  ASSERT_TRUE(replica.ApplyReplicated(all).ok());
  EXPECT_EQ(replica.redo_log()->end(), end);
  ASSERT_TRUE(replica.ApplyReplicated(all).ok()) << "overlap must be skipped";
  EXPECT_EQ(replica.redo_log()->end(), end);

  // Promotion fences and opens the gate; the replica now serves reads.
  replica.Promote(1);
  EXPECT_EQ(replica.role(), DcRole::kPrimary);
  EXPECT_EQ(replica.promotion_epoch(), 1u);
  EXPECT_EQ(replica.promotion_base(), end);
  read.key = Key(3);
  OperationReply got = replica.Perform(read);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.value, "v3");

  // A post-promotion stream from the old primary must be refused.
  ReplicaEntriesMessage late = all;
  EXPECT_FALSE(replica.ApplyReplicated(late).ok());
}

TEST(DcReplicationTest, RejoinTruncatesDivergentSuffix) {
  StableStoreOptions store_options;
  store_options.page_size = 1024;
  store_options.trailer_capacity = 128;
  DataComponentOptions dc_options;
  dc_options.redo_log_enabled = true;

  StableStore store(store_options);
  DataComponent dc(&store, dc_options);
  ASSERT_TRUE(dc.Initialize().ok());
  OperationRequest create;
  create.tc_id = 1;
  create.lsn = 1;
  create.op = OpType::kCreateTable;
  create.table_id = kTableA;
  ASSERT_TRUE(dc.Perform(create).status.ok());
  Lsn lsn = 2;
  for (int i = 0; i < 6; ++i) {
    OperationRequest op;
    op.tc_id = 1;
    op.lsn = lsn++;
    op.op = OpType::kUpsert;
    op.table_id = kTableA;
    op.key = Key(i);
    op.value = "v" + std::to_string(i);
    ASSERT_TRUE(dc.Perform(op).status.ok());
  }
  const uint64_t end = dc.redo_log()->end();
  const uint64_t fence = end - 2;  // pretend the last 2 never shipped

  dc.Crash();
  dc.Restore();
  ASSERT_TRUE(dc.Recover().ok());
  ASSERT_TRUE(dc.RejoinAsReplica(fence).ok());
  EXPECT_EQ(dc.role(), DcRole::kReplica);
  EXPECT_EQ(dc.redo_log()->end(), fence) << "divergent suffix must be gone";
  ASSERT_TRUE(dc.RecoverFromLocalLog().ok());
  EXPECT_EQ(dc.redo_log()->end(), fence);
}

// ---- Durable local recovery (the untx_dcd --recover path) -------------------

TEST(DcReplicationTest, LocalDiskRecoveryRestoresPreCrashState) {
  const std::string dir = ::testing::TempDir() + "dc_local_recovery";
  std::remove((dir + ".pages").c_str());
  std::remove((dir + ".redo").c_str());

  StableStoreOptions store_options;
  store_options.page_size = 1024;
  store_options.trailer_capacity = 128;
  store_options.path = dir + ".pages";
  DataComponentOptions dc_options;
  dc_options.redo_log_enabled = true;
  dc_options.redo_log.path = dir + ".redo";

  Lsn lsn = 1;
  uint64_t end = 0;
  {
    StableStore store(store_options);
    DataComponent dc(&store, dc_options);
    ASSERT_TRUE(dc.Initialize().ok());
    OperationRequest create;
    create.tc_id = 1;
    create.lsn = lsn++;
    create.op = OpType::kCreateTable;
    create.table_id = kTableA;
    ASSERT_TRUE(dc.Perform(create).status.ok());
    for (int i = 0; i < 40; ++i) {
      OperationRequest op;
      op.tc_id = 1;
      op.lsn = lsn++;
      op.op = OpType::kUpsert;
      op.table_id = kTableA;
      op.key = Key(i % 16);
      op.value = "gen" + std::to_string(i);
      ASSERT_TRUE(dc.Perform(op).status.ok());
    }
    end = dc.redo_log()->end();
    // The process "dies" here: nothing flushed beyond what each acked
    // op already forced.
  }

  // Relaunch on the same files: pages + redo replay == pre-crash state,
  // and the redo end is CURRENT (kQueryReplication may report it).
  StableStore store(store_options);
  ASSERT_GT(store.LivePageCount(), 0u);
  DataComponent dc(&store, dc_options);
  ASSERT_TRUE(dc.Recover().ok());
  uint64_t replayed = 0;
  ASSERT_TRUE(dc.RecoverFromLocalLog(&replayed).ok());
  EXPECT_EQ(dc.redo_log()->end(), end);

  for (int i = 24; i < 40; ++i) {
    OperationRequest read;
    read.tc_id = 1;
    read.lsn = lsn++;
    read.op = OpType::kRead;
    read.table_id = kTableA;
    read.key = Key(i % 16);
    OperationReply got = dc.Perform(read);
    ASSERT_TRUE(got.status.ok()) << Key(i % 16) << ": "
                                 << got.status.ToString();
    EXPECT_EQ(got.value, "gen" + std::to_string(i));
  }

  ControlRequest query;
  query.type = ControlType::kQueryReplication;
  query.tc_id = 1;
  ControlReply qr = dc.Control(query);
  ASSERT_TRUE(qr.status.ok());
  EXPECT_TRUE(qr.replication_enabled);
  EXPECT_EQ(qr.rlsn, end) << "recovered state must be redo-current";

  std::remove((dir + ".pages").c_str());
  std::remove((dir + ".redo").c_str());
}

// ---- Cluster-level: ship, lag, promote, rejoin ------------------------------

TEST(DcReplicationTest, FailoverIsSuffixOnlyAndStateMatches) {
  auto cluster = std::move(Cluster::Open(ReplicatedOptions(1))).ValueOrDie();
  TransactionComponent* tc = cluster->tc(0);
  ASSERT_TRUE(tc->CreateTable(kTableA).ok());
  ASSERT_TRUE(tc->CreateTable(kTableB).ok());

  Model model;
  for (int i = 0; i < 60; ++i) {
    const TableId table = i % 2 == 0 ? kTableA : kTableB;
    StatusOr<TxnId> txn = tc->Begin();
    ASSERT_TRUE(txn.ok());
    const std::string key = Key(i % 20);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(tc->Upsert(*txn, table, key, value).ok());
    ASSERT_TRUE(tc->Commit(*txn).ok());
    model[{table, key}] = value;
  }

  // Standbys drain the whole history: lag reaches 0 for both DCs.
  ASSERT_TRUE(WaitFor([&] {
    return cluster->ReplicaLag(0) == 0 && cluster->ReplicaLag(1) == 0;
  })) << "lag0=" << cluster->ReplicaLag(0)
      << " lag1=" << cluster->ReplicaLag(1);
  ASSERT_GT(cluster->replica(0, 0)->redo_log()->end(), 0u);

  // Kill DC 0 and fail over to its caught-up standby.
  const uint64_t resent_before = tc->stats().recovery_resent_ops.load();
  cluster->CrashDc(0);
  ASSERT_TRUE(cluster->FailoverDc(0).ok());
  EXPECT_EQ(cluster->dc(0)->role(), DcRole::kPrimary);
  EXPECT_EQ(cluster->dc(0)->promotion_epoch(), 1u);

  // THE acceptance criterion: a caught-up standby means zero full
  // redo-resend — nothing was in flight, so nothing needed resending.
  EXPECT_EQ(tc->stats().recovery_resent_ops.load(), resent_before)
      << "failover to a caught-up standby must not replay the redo log";
  EXPECT_GT(tc->stats().suffix_skipped_ops.load(), 0u);

  // The promoted standby serves the exact committed state.
  EXPECT_EQ(SnapshotState(cluster.get()), model);

  // New traffic lands on the new primary.
  for (int i = 0; i < 20; ++i) {
    StatusOr<TxnId> txn = tc->Begin();
    ASSERT_TRUE(txn.ok());
    const std::string key = Key(100 + i);
    ASSERT_TRUE(tc->Upsert(*txn, kTableB, key, "post-failover").ok());
    ASSERT_TRUE(tc->Commit(*txn).ok());
    model[{kTableB, key}] = "post-failover";
  }
  EXPECT_EQ(SnapshotState(cluster.get()), model);

  // The retired ex-primary rejoins as a standby and catches up.
  int parked = -1;
  for (int r = 0; r < cluster->num_replicas(0); ++r) {
    if (cluster->replica(0, r)->crashed()) parked = r;
  }
  ASSERT_GE(parked, 0) << "ex-primary should be parked in a replica slot";
  ASSERT_TRUE(cluster->RejoinReplica(0, parked).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster->ReplicaLag(0) == 0; }))
      << "rejoined standby never caught up; lag=" << cluster->ReplicaLag(0);
  EXPECT_EQ(cluster->replica(0, parked)->redo_log()->end(),
            cluster->dc(0)->redo_log()->end());

  // And a second failover back onto it round-trips the same state.
  cluster->CrashDc(0);
  ASSERT_TRUE(cluster->FailoverDc(0).ok());
  EXPECT_EQ(cluster->dc(0)->promotion_epoch(), 2u);
  EXPECT_EQ(SnapshotState(cluster.get()), model);
}

TEST(DcReplicationTest, ReplicaCrashMidCatchUpRecoversAndDrains) {
  auto cluster = std::move(Cluster::Open(ReplicatedOptions(1))).ValueOrDie();
  TransactionComponent* tc = cluster->tc(0);
  ASSERT_TRUE(tc->CreateTable(kTableA).ok());
  ASSERT_TRUE(tc->CreateTable(kTableB).ok());

  Model model;
  auto write_burst = [&](int base, int n) {
    for (int i = 0; i < n; ++i) {
      StatusOr<TxnId> txn = tc->Begin();
      ASSERT_TRUE(txn.ok());
      const std::string key = Key((base + i) % 32);
      const std::string value = "b" + std::to_string(base + i);
      ASSERT_TRUE(tc->Upsert(*txn, kTableA, key, value).ok());
      ASSERT_TRUE(tc->Commit(*txn).ok());
      model[{kTableA, key}] = value;
    }
  };

  write_burst(0, 40);
  // Crash the standby mid-stream (whatever it has applied so far), keep
  // writing, then revive it: the link re-derives its position from the
  // replica's own log end and drains the rest.
  DataComponent* standby = cluster->replica(1, 0);
  standby->Crash();
  write_burst(100, 40);
  ASSERT_TRUE(cluster->RejoinReplica(1, 0).ok());
  ASSERT_TRUE(WaitFor([&] { return cluster->ReplicaLag(1) == 0; }))
      << "standby never drained after mid-catch-up crash; lag="
      << cluster->ReplicaLag(1);
  EXPECT_EQ(standby->redo_log()->end(), cluster->dc(1)->redo_log()->end());

  // Failing over onto it now serves the full committed state.
  cluster->CrashDc(1);
  ASSERT_TRUE(cluster->FailoverDc(1).ok());
  EXPECT_EQ(SnapshotState(cluster.get()), model);
}

// ---- Replica ack bookkeeping at the log --------------------------------------

TEST(DcReplicationTest, ReplicaAcksGateCheckpointClamp) {
  auto cluster = std::move(Cluster::Open(ReplicatedOptions(1))).ValueOrDie();
  TransactionComponent* tc = cluster->tc(0);
  ASSERT_TRUE(tc->CreateTable(kTableA).ok());
  for (int i = 0; i < 30; ++i) {
    StatusOr<TxnId> txn = tc->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(tc->Upsert(*txn, kTableA, Key(i), "x").ok());
    ASSERT_TRUE(tc->Commit(*txn).ok());
  }
  ASSERT_TRUE(WaitFor([&] {
    return cluster->ReplicaLag(0) == 0 && cluster->ReplicaLag(1) == 0;
  }));
  // With a caught-up standby the clamp is wide open: a checkpoint must
  // succeed and advance the RSSP past log start.
  ASSERT_TRUE(tc->TakeCheckpoint().ok());
  EXPECT_GT(tc->rssp(), 0u);
}

}  // namespace
}  // namespace untx
