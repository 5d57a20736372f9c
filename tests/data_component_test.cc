// DataComponent tests. The test body plays the role of a (correct) TC:
// it assigns monotonically increasing LSNs, never sends conflicting
// operations concurrently, and feeds EOSL / LWM control messages.
#include "dc/data_component.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

class MiniTc {
 public:
  explicit MiniTc(DataComponent* dc, TcId tc = 1) : dc_(dc), tc_(tc) {
    Arm();
  }

  /// What a real TC does at Start() and after completing a redo resend:
  /// re-arm the LWM validity contract (see BufferPool::AllowLwm).
  void Arm() {
    ControlRequest req;
    req.type = ControlType::kRestartEnd;
    req.tc_id = tc_;
    dc_->Control(req);
  }

  Lsn NextLsn() { return next_lsn_++; }

  OperationReply Op(OpType op, const std::string& key,
                    const std::string& value = "", bool versioned = false,
                    TableId table = kTable) {
    OperationRequest req;
    req.tc_id = tc_;
    req.lsn = NextLsn();
    req.op = op;
    req.table_id = table;
    req.key = key;
    req.value = value;
    req.versioned = versioned;
    return dc_->Perform(req);
  }

  OperationReply Read(const std::string& key,
                      ReadFlavor flavor = ReadFlavor::kOwn,
                      TableId table = kTable) {
    OperationRequest req;
    req.tc_id = tc_;
    req.lsn = NextLsn();
    req.op = OpType::kRead;
    req.table_id = table;
    req.key = key;
    req.read_flavor = flavor;
    return dc_->Perform(req);
  }

  OperationReply Scan(const std::string& from, const std::string& to,
                      uint32_t limit = 0,
                      ReadFlavor flavor = ReadFlavor::kOwn) {
    OperationRequest req;
    req.tc_id = tc_;
    req.lsn = NextLsn();
    req.op = OpType::kScanRange;
    req.table_id = kTable;
    req.key = from;
    req.end_key = to;
    req.limit = limit;
    req.read_flavor = flavor;
    return dc_->Perform(req);
  }

  /// Declares everything sent so far replied + stable (the test waits for
  /// each reply synchronously, so this is truthful).
  void PushDurability() {
    ControlRequest eosl;
    eosl.type = ControlType::kEndOfStableLog;
    eosl.tc_id = tc_;
    eosl.lsn = next_lsn_ - 1;
    dc_->Control(eosl);
    ControlRequest lwm;
    lwm.type = ControlType::kLowWaterMark;
    lwm.tc_id = tc_;
    lwm.lsn = next_lsn_ - 1;
    dc_->Control(lwm);
  }

  Lsn last_lsn() const { return next_lsn_ - 1; }
  TcId tc() const { return tc_; }

  /// Re-sends a request with a previously used LSN (simulating a lost
  /// reply + resend).
  OperationReply Resend(OpType op, Lsn lsn, const std::string& key,
                        const std::string& value = "") {
    OperationRequest req;
    req.tc_id = tc_;
    req.lsn = lsn;
    req.op = op;
    req.table_id = kTable;
    req.key = key;
    req.value = value;
    return dc_->Perform(req);
  }

 private:
  DataComponent* dc_;
  TcId tc_;
  Lsn next_lsn_ = 1;
};

class DataComponentTest : public ::testing::Test {
 protected:
  void SetUp() override { Build({}); }

  void Build(DataComponentOptions options) {
    StableStoreOptions store_options;
    store_options.page_size = 1024;  // small pages force SMOs
    store_options.trailer_capacity = 128;
    store_ = std::make_unique<StableStore>(store_options);
    options.max_value_size = 256;
    dc_ = std::make_unique<DataComponent>(store_.get(), options);
    ASSERT_TRUE(dc_->Initialize().ok());
    tc_ = std::make_unique<MiniTc>(dc_.get());
    ASSERT_TRUE(tc_->Op(OpType::kCreateTable, "").status.ok());
  }

  std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%06d", i);
    return buf;
  }

  std::unique_ptr<StableStore> store_;
  std::unique_ptr<DataComponent> dc_;
  std::unique_ptr<MiniTc> tc_;
};

TEST_F(DataComponentTest, InsertReadDeleteCycle) {
  EXPECT_TRUE(tc_->Op(OpType::kInsert, "alpha", "1").status.ok());
  auto read = tc_->Read("alpha");
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(read.value, "1");
  auto del = tc_->Op(OpType::kDelete, "alpha");
  ASSERT_TRUE(del.status.ok());
  EXPECT_TRUE(del.has_before);
  EXPECT_EQ(del.value, "1");
  EXPECT_TRUE(tc_->Read("alpha").status.IsNotFound());
}

TEST_F(DataComponentTest, InsertDuplicateKeyFails) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v1").status.ok());
  EXPECT_TRUE(tc_->Op(OpType::kInsert, "k", "v2").status.IsAlreadyExists());
}

TEST_F(DataComponentTest, UpdateReturnsBeforeImage) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "old").status.ok());
  auto up = tc_->Op(OpType::kUpdate, "k", "new");
  ASSERT_TRUE(up.status.ok());
  EXPECT_TRUE(up.has_before);
  EXPECT_EQ(up.value, "old") << "reply must carry undo info for the TC";
  EXPECT_EQ(tc_->Read("k").value, "new");
}

TEST_F(DataComponentTest, UpdateMissingKeyIsNotFound) {
  EXPECT_TRUE(tc_->Op(OpType::kUpdate, "ghost", "v").status.IsNotFound());
  EXPECT_TRUE(tc_->Op(OpType::kDelete, "ghost").status.IsNotFound());
}

TEST_F(DataComponentTest, UpsertInsertsThenUpdates) {
  auto first = tc_->Op(OpType::kUpsert, "k", "v1");
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.has_before);
  auto second = tc_->Op(OpType::kUpsert, "k", "v2");
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.has_before);
  EXPECT_EQ(second.value, "v1");
  EXPECT_EQ(tc_->Read("k").value, "v2");
}

TEST_F(DataComponentTest, ManyInsertsForceSplitsAndStayReadable) {
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "value-" + Key(i))
                    .status.ok())
        << i;
  }
  EXPECT_GT(dc_->btree()->stats().splits, 0u) << "small pages must split";
  for (int i = 0; i < n; ++i) {
    auto read = tc_->Read(Key(i));
    ASSERT_TRUE(read.status.ok()) << i;
    ASSERT_EQ(read.value, "value-" + Key(i));
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

TEST_F(DataComponentTest, ScanRangeReturnsSortedWindow) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), std::to_string(i))
                    .status.ok());
  }
  auto scan = tc_->Scan(Key(100), Key(110), 100);
  ASSERT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.keys.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scan.keys[i], Key(100 + i));
    EXPECT_EQ(scan.values[i], std::to_string(100 + i));
  }
}

TEST_F(DataComponentTest, ScanHonorsLimit) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "v").status.ok());
  }
  auto scan = tc_->Scan(Key(0), "", 7);
  ASSERT_TRUE(scan.status.ok());
  EXPECT_EQ(scan.keys.size(), 7u);
}

TEST_F(DataComponentTest, ProbeNextReturnsKeysForLocking) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i * 2), "v").status.ok());
  }
  OperationRequest req;
  req.tc_id = tc_->tc();
  req.lsn = tc_->NextLsn();
  req.op = OpType::kProbeNext;
  req.table_id = kTable;
  req.key = Key(10);
  req.limit = 5;
  auto reply = dc_->Perform(req);
  ASSERT_TRUE(reply.status.ok());
  ASSERT_EQ(reply.keys.size(), 5u);
  EXPECT_EQ(reply.keys[0], Key(10));  // inclusive probe
  EXPECT_EQ(reply.keys[1], Key(12));
}

TEST_F(DataComponentTest, MassDeleteTriggersConsolidation) {
  const int n = 600;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "vvvvvvvvvv").status.ok());
  }
  const uint64_t splits = dc_->btree()->stats().splits;
  ASSERT_GT(splits, 0u);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kDelete, Key(i)).status.ok()) << i;
  }
  EXPECT_GT(dc_->btree()->stats().consolidates, 0u);
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  // Everything is gone.
  auto scan = tc_->Scan("", "", 1000);
  EXPECT_EQ(scan.keys.size(), 0u);
}

TEST_F(DataComponentTest, ResendIsIdempotent) {
  auto insert = tc_->Op(OpType::kInsert, "k", "v");
  ASSERT_TRUE(insert.status.ok());
  // The "reply was lost"; the TC resends with the same LSN.
  auto dup = tc_->Resend(OpType::kInsert, insert.lsn, "k", "v");
  EXPECT_TRUE(dup.status.ok()) << dup.status.ToString();
  EXPECT_TRUE(dup.was_duplicate);
  // The record was not doubled.
  auto scan = tc_->Scan("", "", 10);
  EXPECT_EQ(scan.keys.size(), 1u);
}

TEST_F(DataComponentTest, ResendOfUpdateReturnsCachedBeforeImage) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "before").status.ok());
  auto up = tc_->Op(OpType::kUpdate, "k", "after");
  ASSERT_TRUE(up.status.ok());
  auto dup = tc_->Resend(OpType::kUpdate, up.lsn, "k", "after");
  ASSERT_TRUE(dup.status.ok());
  EXPECT_TRUE(dup.was_duplicate);
  EXPECT_TRUE(dup.has_before);
  EXPECT_EQ(dup.value, "before")
      << "resend must return the original undo image, not re-execute";
  EXPECT_EQ(tc_->Read("k").value, "after");
}

TEST_F(DataComponentTest, OutOfOrderLsnsBothApply) {
  // Simulate TC multi-threading: two non-conflicting ops dispatched with
  // out-of-order LSNs (§5.1). Both must apply exactly once.
  const Lsn l1 = tc_->NextLsn();
  const Lsn l2 = tc_->NextLsn();
  // Higher LSN arrives first.
  auto r2 = tc_->Resend(OpType::kInsert, l2, "bbb", "2");
  ASSERT_TRUE(r2.status.ok());
  auto r1 = tc_->Resend(OpType::kInsert, l1, "aaa", "1");
  ASSERT_TRUE(r1.status.ok()) << "abLSN must not treat lower LSN as covered";
  EXPECT_EQ(tc_->Read("aaa").value, "1");
  EXPECT_EQ(tc_->Read("bbb").value, "2");
}

TEST_F(DataComponentTest, ConflictSentinelDetectsTcBug) {
  // Two different LSNs for the same key sent concurrently is a TC
  // contract violation; the sentinel must catch at least some. The
  // overlap is scheduler-dependent: gate both threads on a start barrier
  // and retry the burst until a conflict is observed (bounded rounds).
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "hot", "v").status.ok());
  std::atomic<int> conflicts{0};
  for (int round = 0; round < 50 && conflicts.load() == 0 &&
                      dc_->stats().conflicts_detected.load() == 0;
       ++round) {
    std::atomic<bool> go{false};
    auto burst = [&](Lsn base) {
      while (!go.load()) {
      }
      for (int i = 0; i < 5000; ++i) {
        OperationRequest req;
        req.tc_id = 1;
        req.lsn = base + static_cast<Lsn>(round) * 5000 + i;
        req.op = OpType::kUpdate;
        req.table_id = kTable;
        req.key = "hot";
        req.value = base < 1000000 ? "a" : "b";
        if (dc_->Perform(req).status.IsConflict()) conflicts.fetch_add(1);
      }
    };
    std::thread t1(burst, Lsn{100000});
    std::thread t2(burst, Lsn{2000000});
    go.store(true);
    t1.join();
    t2.join();
  }
  EXPECT_GT(conflicts.load() +
                static_cast<int>(dc_->stats().conflicts_detected.load()),
            0);
}

// A channel duplicate of an acked write can arrive after LWM pruning has
// dropped its cached reply; it then enters the conflict sentinel like a
// live op. A live write on the same key that meets it there, or that it
// meets, must wait it out instead of being refused as a TC contract
// violation. The test holds the key's page latch so that whichever op
// goes first stays in the sentinel while the other arrives.
TEST_F(DataComponentTest, PrunedDuplicateIsNotAConflict) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "hot", "v0").status.ok());
  std::vector<Lsn> acked;
  for (int i = 0; i < 4; ++i) {
    auto r = tc_->Op(OpType::kUpdate, "hot", "old");
    ASSERT_TRUE(r.status.ok());
    acked.push_back(r.lsn);
  }
  tc_->PushDurability();  // the LWM covers them all: replies pruned
  std::string last;
  for (int round = 0; round < 4; ++round) {
    const bool duplicate_first = round % 2 == 0;
    std::vector<Frame*> latched;
    for (PageId pid : dc_->pool()->CachedPages()) {
      Frame* frame = nullptr;
      ASSERT_TRUE(dc_->pool()->Fetch(pid, &frame).ok());
      frame->latch.LockExclusive();
      latched.push_back(frame);
    }
    OperationReply duplicate;
    OperationReply live;
    last = "live" + std::to_string(round);
    const OperationRequest live_req = [&] {
      OperationRequest req;
      req.tc_id = tc_->tc();
      req.lsn = tc_->NextLsn();
      req.op = OpType::kUpdate;
      req.table_id = kTable;
      req.key = "hot";
      req.value = last;
      return req;
    }();
    std::function<void()> send_duplicate = [&] {
      duplicate = tc_->Resend(OpType::kUpdate, acked[round], "hot", "old");
    };
    std::function<void()> send_live = [&] {
      live = dc_->Perform(live_req);
    };
    // The first op enters the sentinel and waits on the latch; the
    // second arrives while it is there.
    std::thread first(duplicate_first ? send_duplicate : send_live);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::thread second(duplicate_first ? send_live : send_duplicate);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (Frame* frame : latched) {
      frame->latch.UnlockExclusive();
      dc_->pool()->Unpin(frame);
    }
    first.join();
    second.join();
    EXPECT_TRUE(live.status.ok())
        << "round " << round << ": " << live.status.ToString();
    EXPECT_TRUE(duplicate.status.ok())
        << "round " << round << ": " << duplicate.status.ToString();
    EXPECT_TRUE(duplicate.was_duplicate) << "round " << round;
  }
  EXPECT_EQ(dc_->stats().conflicts_detected.load(), 0u);
  EXPECT_EQ(tc_->Read("hot").value, last) << "a duplicate re-executed";
}

// A resend whose cached reply LWM pruning dropped is answered by the
// page abLSN, every time: caching that answer would bring the pruned
// reply back and send later copies down the reply-cache path instead.
TEST_F(DataComponentTest, PrunedDuplicatesStayOutOfTheReplyCache) {
  std::vector<Lsn> acked;
  for (int i = 0; i < 10; ++i) {
    auto r = tc_->Op(OpType::kInsert, Key(i), "v");
    ASSERT_TRUE(r.status.ok());
    acked.push_back(r.lsn);
  }
  tc_->PushDurability();  // the LWM covers them all: replies pruned
  const uint64_t covered_before = dc_->stats().duplicate_hits.load();
  constexpr int kCopies = 50;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (int i = 0; i < 10; ++i) {
      auto dup = tc_->Resend(OpType::kInsert, acked[i], Key(i), "v");
      ASSERT_TRUE(dup.status.ok()) << dup.status.ToString();
      EXPECT_TRUE(dup.was_duplicate);
    }
  }
  EXPECT_EQ(dc_->stats().duplicate_hits.load() - covered_before,
            static_cast<uint64_t>(kCopies) * acked.size());
  EXPECT_EQ(dc_->stats().reply_cache_hits.load(), 0u);
}

TEST_F(DataComponentTest, FlushRequiresEosl) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  // Without EOSL the page reflects ops beyond the stable TC log: the
  // causality gate must hold it back.
  EXPECT_GT(dc_->pool()->FlushAllEligible(), 0u);
  tc_->PushDurability();
  EXPECT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  EXPECT_EQ(dc_->pool()->DirtyCount(), 0u);
}

TEST_F(DataComponentTest, CheckpointFlushesOpsBelowRssp) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "v").status.ok());
  }
  tc_->PushDurability();
  ControlRequest cp;
  cp.type = ControlType::kCheckpoint;
  cp.tc_id = tc_->tc();
  cp.lsn = tc_->last_lsn() + 1;
  auto reply = dc_->Control(cp);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  // All data pages with ops below the new RSSP are stable now.
  EXPECT_EQ(dc_->pool()->MinDirtyFirstOpLsn(), kMaxLsn);
}

// A checkpoint holds pinned frames while it waits for pages to become
// flushable; a crash must wait for it rather than clear the pool under
// it, and the checkpoint must then report the crash, not success.
TEST_F(DataComponentTest, CrashWaitsForInFlightCheckpoint) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  // No EOSL was pushed, so the page cannot be flushed: the checkpoint
  // keeps retrying until something ends it.
  ControlReply checkpoint;
  std::thread checkpointer([&] {
    ControlRequest req;
    req.type = ControlType::kCheckpoint;
    req.tc_id = tc_->tc();
    req.lsn = tc_->last_lsn() + 1;
    checkpoint = dc_->Control(req);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dc_->Crash();
  checkpointer.join();
  EXPECT_TRUE(checkpoint.status.IsCrashed()) << checkpoint.status.ToString();
}

TEST_F(DataComponentTest, CrashLosesCacheRecoverRestoresFromStable) {
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "stable-v").status.ok());
  }
  tc_->PushDurability();
  ControlRequest cp;
  cp.type = ControlType::kCheckpoint;
  cp.tc_id = tc_->tc();
  cp.lsn = tc_->last_lsn() + 1;
  ASSERT_TRUE(dc_->Control(cp).status.ok());

  dc_->Crash();
  EXPECT_TRUE(tc_->Read(Key(0)).status.IsCrashed());
  dc_->Restore();
  ASSERT_TRUE(dc_->Recover().ok());
  tc_->Arm();

  for (int i = 0; i < n; ++i) {
    auto read = tc_->Read(Key(i));
    ASSERT_TRUE(read.status.ok()) << i << ": " << read.status.ToString();
    ASSERT_EQ(read.value, "stable-v");
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

TEST_F(DataComponentTest, CrashBeforeDurabilityLosesUnstableOps) {
  // Ops applied but never made stable (no EOSL, no flush) vanish with the
  // cache — exactly what TC resend-from-RSSP repairs.
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "volatile", "v").status.ok());
  dc_->Crash();
  dc_->Restore();
  ASSERT_TRUE(dc_->Recover().ok());
  tc_->Arm();
  // Even the CreateTable (LSN 1) was volatile — its SMO batch had not
  // been forced. The TC recovery protocol resends everything from the
  // RSSP in LSN order, so the table comes back before the insert.
  auto create = tc_->Resend(OpType::kCreateTable, 1, "");
  ASSERT_TRUE(create.status.ok()) << create.status.ToString();
  EXPECT_TRUE(tc_->Read("volatile").status.IsNotFound());
  auto again = tc_->Resend(OpType::kInsert, 2, "volatile", "v");
  EXPECT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_EQ(tc_->Read("volatile").value, "v");
}

TEST_F(DataComponentTest, SmoSurvivesCrashViaDcLogReplay) {
  // Force splits, make the TC log "stable" so the DC log batches can be
  // forced, but do NOT checkpoint pages — recovery must rebuild structure
  // from the DC log, then reads (after resends) see everything.
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Op(OpType::kInsert, Key(i), "v").status.ok());
  }
  ASSERT_GT(dc_->btree()->stats().splits, 0u);
  tc_->PushDurability();  // EOSL: DC log batches become forceable
  dc_->pool()->ForceDcLog();

  dc_->Crash();
  dc_->Restore();
  ASSERT_TRUE(dc_->Recover().ok());
  tc_->Arm();
  ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());

  // Replay the TC's ops (recovery resend); all must be idempotent or
  // re-applied, never duplicated.
  for (int i = 0; i < n; ++i) {
    auto reply = tc_->Resend(OpType::kInsert, 2 + i, Key(i), "v");
    ASSERT_TRUE(reply.status.ok()) << i << ": " << reply.status.ToString();
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tc_->Read(Key(i)).status.ok()) << i;
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

// ---- Versioning (§6.2.2) ---------------------------------------------------

TEST_F(DataComponentTest, VersionedUpdateKeepsBeforeForReadCommitted) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "committed").status.ok());
  // Promote the insert so it is a plain committed record.
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kUpdate, "k", "uncommitted", true).status.ok());

  EXPECT_EQ(tc_->Read("k", ReadFlavor::kOwn).value, "uncommitted");
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kDirty).value, "uncommitted");
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kReadCommitted).value, "committed");
}

TEST_F(DataComponentTest, PromoteMakesUpdateCommitted) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v1").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kUpdate, "k", "v2", true).status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kReadCommitted).value, "v2");
}

TEST_F(DataComponentTest, RollbackRestoresBefore) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v1").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kUpdate, "k", "v2", true).status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kRollbackVersion, "k").status.ok());
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kOwn).value, "v1");
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kReadCommitted).value, "v1");
}

TEST_F(DataComponentTest, VersionedInsertInvisibleAtReadCommitted) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "new", true).status.ok());
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kOwn).value, "new");
  EXPECT_TRUE(tc_->Read("k", ReadFlavor::kReadCommitted).status.IsNotFound())
      << "§6.2.2: insert has a null before version";
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kReadCommitted).value, "new");
}

TEST_F(DataComponentTest, RollbackOfVersionedInsertRemovesRecord) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "new", true).status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kRollbackVersion, "k").status.ok());
  EXPECT_TRUE(tc_->Read("k", ReadFlavor::kOwn).status.IsNotFound());
}

TEST_F(DataComponentTest, VersionedDeleteVisibleUntilPromote) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kDelete, "k", "", true).status.ok());
  EXPECT_TRUE(tc_->Read("k", ReadFlavor::kOwn).status.IsNotFound());
  EXPECT_EQ(tc_->Read("k", ReadFlavor::kReadCommitted).value, "v")
      << "readers see the before version until the delete commits";
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  EXPECT_TRUE(
      tc_->Read("k", ReadFlavor::kReadCommitted).status.IsNotFound());
}

TEST_F(DataComponentTest, PromoteAndRollbackAreIdempotent) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v", true).status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kPromoteVersion, "k").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kRollbackVersion, "k").status.ok());
  EXPECT_EQ(tc_->Read("k").value, "v") << "rollback after promote is a no-op";
}

// ---- Page-sync strategies (§5.1.2) ------------------------------------------

class PageSyncTest : public DataComponentTest {};

TEST_F(PageSyncTest, StrategyWaitForLwmDefersUntilCollapse) {
  DataComponentOptions options;
  options.buffer_pool.strategy = PageSyncStrategy::kWaitForLwm;
  Build(options);
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  // EOSL alone is not enough: the abLSN has not collapsed.
  ControlRequest eosl;
  eosl.type = ControlType::kEndOfStableLog;
  eosl.tc_id = tc_->tc();
  eosl.lsn = tc_->last_lsn();
  dc_->Control(eosl);
  EXPECT_GT(dc_->pool()->FlushAllEligible(), 0u);
  EXPECT_GT(dc_->pool()->stats().flush_deferrals, 0u);
  // LWM collapses the abLSN; the flush goes through.
  ControlRequest lwm;
  lwm.type = ControlType::kLowWaterMark;
  lwm.tc_id = tc_->tc();
  lwm.lsn = tc_->last_lsn();
  dc_->Control(lwm);
  EXPECT_EQ(dc_->pool()->FlushAllEligible(), 0u);
}

TEST_F(PageSyncTest, StrategyStoreFullFlushesWithoutLwm) {
  DataComponentOptions options;
  options.buffer_pool.strategy = PageSyncStrategy::kStoreFull;
  Build(options);
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  ControlRequest eosl;
  eosl.type = ControlType::kEndOfStableLog;
  eosl.tc_id = tc_->tc();
  eosl.lsn = tc_->last_lsn();
  dc_->Control(eosl);
  // No LWM needed: the full abLSN is serialized into the trailer.
  EXPECT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  EXPECT_GT(dc_->pool()->stats().trailer_bytes_written, 0u);
}

TEST_F(PageSyncTest, TrailerAbLsnSurvivesReload) {
  DataComponentOptions options;
  options.buffer_pool.strategy = PageSyncStrategy::kStoreFull;
  Build(options);
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  const Lsn op_lsn = tc_->last_lsn();
  ControlRequest eosl;
  eosl.type = ControlType::kEndOfStableLog;
  eosl.tc_id = tc_->tc();
  eosl.lsn = op_lsn;
  dc_->Control(eosl);
  ASSERT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  dc_->Crash();
  dc_->Restore();
  ASSERT_TRUE(dc_->Recover().ok());
  tc_->Arm();
  // The reloaded page must remember the op in its abLSN: the resend is
  // detected as a duplicate.
  auto dup = tc_->Resend(OpType::kInsert, op_lsn, "k", "v");
  ASSERT_TRUE(dup.status.ok());
  EXPECT_TRUE(dup.was_duplicate);
}

// ---- TC-crash reset (§5.3.2) -------------------------------------------------

TEST_F(DataComponentTest, ResetDropsPagesWithLostOps) {
  // Phase 1: make some committed state durable.
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "stable-key", "sv").status.ok());
  tc_->PushDurability();
  ASSERT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  const Lsn stable_end = tc_->last_lsn();

  // Phase 2: ops beyond the stable TC log (these will be "lost").
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "lost-key", "lv").status.ok());
  ASSERT_TRUE(tc_->Op(OpType::kUpdate, "stable-key", "l2").status.ok());

  // TC crashes, losing its volatile log tail; restart resets the DC.
  ControlRequest reset;
  reset.type = ControlType::kRestartBegin;
  reset.tc_id = tc_->tc();
  reset.lsn = stable_end;
  auto reply = dc_->Control(reset);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_TRUE(reply.escalate_tcs.empty());

  // Lost effects are gone; stable effects remain.
  EXPECT_TRUE(tc_->Read("lost-key").status.IsNotFound());
  EXPECT_EQ(tc_->Read("stable-key").value, "sv");
  EXPECT_GT(dc_->stats().pages_reset_dropped.load(), 0u);
}

// A page the reset must drop but cannot, because something holds its
// frame pinned past the wait, fails the reset loudly; once the pin is
// gone a new reset completes. A pin released within the wait does not
// fail the reset.
TEST_F(DataComponentTest, ResetFailsOnPageThatStaysPinned) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "stable-key", "sv").status.ok());
  tc_->PushDurability();
  ASSERT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  const Lsn stable_end = tc_->last_lsn();
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "lost-key", "lv").status.ok());

  // The injected long pin: every cached frame, the lost op's leaf too.
  std::vector<Frame*> pinned;
  for (PageId pid : dc_->pool()->CachedPages()) {
    Frame* frame = nullptr;
    ASSERT_TRUE(dc_->pool()->Fetch(pid, &frame).ok());
    pinned.push_back(frame);
  }
  ControlRequest reset;
  reset.type = ControlType::kRestartBegin;
  reset.tc_id = tc_->tc();
  reset.lsn = stable_end;
  auto failed = dc_->Control(reset);
  EXPECT_TRUE(failed.status.IsTimedOut()) << failed.status.ToString();
  EXPECT_NE(failed.status.ToString().find("pinned page"), std::string::npos)
      << failed.status.ToString();

  // Pinned again, but released well within the wait.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (Frame* frame : pinned) dc_->pool()->Unpin(frame);
  });
  auto ok = dc_->Control(reset);
  releaser.join();
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_TRUE(tc_->Read("lost-key").status.IsNotFound());
  EXPECT_EQ(tc_->Read("stable-key").value, "sv");
}

TEST_F(DataComponentTest, ResetKeepsPagesWithoutLostOps) {
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k", "v").status.ok());
  tc_->PushDurability();
  const Lsn stable_end = tc_->last_lsn();
  ControlRequest reset;
  reset.type = ControlType::kRestartBegin;
  reset.tc_id = tc_->tc();
  reset.lsn = stable_end;
  ASSERT_TRUE(dc_->Control(reset).status.ok());
  EXPECT_EQ(tc_->Read("k").value, "v") << "nothing beyond LSNst: no reset";
}

// ---- Multi-TC (§6) ----------------------------------------------------------

TEST_F(DataComponentTest, TwoTcsDisjointKeysOnSharedDc) {
  MiniTc tc2(dc_.get(), 2);
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "a:1", "from-tc1").status.ok());
  ASSERT_TRUE(tc2.Op(OpType::kInsert, "b:1", "from-tc2").status.ok());
  EXPECT_EQ(tc_->Read("b:1", ReadFlavor::kDirty).value, "from-tc2");
  EXPECT_EQ(tc2.Read("a:1", ReadFlavor::kDirty).value, "from-tc1");
}

TEST_F(DataComponentTest, PerTcResetOnSharedPage) {
  MiniTc tc2(dc_.get(), 2);
  // Both TCs write to the same page; both become durable.
  ASSERT_TRUE(tc_->Op(OpType::kInsert, "k1", "tc1-stable").status.ok());
  ASSERT_TRUE(tc2.Op(OpType::kInsert, "k2", "tc2-stable").status.ok());
  tc_->PushDurability();
  tc2.PushDurability();
  ASSERT_EQ(dc_->pool()->FlushAllEligible(), 0u);
  const Lsn tc1_stable_end = tc_->last_lsn();

  // TC1 writes more (lost); TC2 writes more (NOT lost — TC2 is healthy
  // and its EOSL has advanced past the op).
  ASSERT_TRUE(tc_->Op(OpType::kUpdate, "k1", "tc1-lost").status.ok());
  ASSERT_TRUE(tc2.Op(OpType::kUpdate, "k2", "tc2-kept").status.ok());
  tc2.PushDurability();

  ControlRequest reset;
  reset.type = ControlType::kRestartBegin;
  reset.tc_id = tc_->tc();
  reset.lsn = tc1_stable_end;
  auto reply = dc_->Control(reset);
  ASSERT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.escalate_tcs.empty())
      << "per-record merge should spare the healthy TC";

  EXPECT_EQ(tc_->Read("k1").value, "tc1-stable") << "lost op rolled back";
  EXPECT_EQ(tc2.Read("k2").value, "tc2-kept")
      << "§6.1.2: records updated by other TCs are not reset";
  EXPECT_GT(dc_->stats().pages_reset_merged.load(), 0u);
}

// ---- Property: random ops against a model ----------------------------------

class DcModelTest : public DataComponentTest,
                    public ::testing::WithParamInterface<uint64_t> {};

TEST_P(DcModelTest, RandomOpsMatchInMemoryModel) {
  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int step = 0; step < 1200; ++step) {
    const std::string key = Key(static_cast<int>(rng.Uniform(150)));
    const uint64_t action = rng.Uniform(4);
    if (action == 0) {
      const std::string value = rng.Bytes(1 + rng.Uniform(40));
      auto reply = tc_->Op(OpType::kInsert, key, value);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.IsAlreadyExists()) << key;
      } else {
        ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
        model[key] = value;
      }
    } else if (action == 1) {
      const std::string value = rng.Bytes(1 + rng.Uniform(40));
      auto reply = tc_->Op(OpType::kUpdate, key, value);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.ok());
        ASSERT_EQ(reply.value, model[key]) << "undo image mismatch";
        model[key] = value;
      } else {
        ASSERT_TRUE(reply.status.IsNotFound());
      }
    } else if (action == 2) {
      auto reply = tc_->Op(OpType::kDelete, key);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.ok());
        ASSERT_EQ(reply.value, model[key]);
        model.erase(key);
      } else {
        ASSERT_TRUE(reply.status.IsNotFound());
      }
    } else {
      auto reply = tc_->Read(key);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.ok());
        ASSERT_EQ(reply.value, model[key]);
      } else {
        ASSERT_TRUE(reply.status.IsNotFound());
      }
    }
  }
  // Full scan must equal the model exactly.
  auto scan = tc_->Scan("", "", 100000);
  ASSERT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.keys.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scan.keys[i], k);
    EXPECT_EQ(scan.values[i], v);
    ++i;
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcModelTest,
                         ::testing::Values(1, 2, 3, 42, 777));

}  // namespace
}  // namespace untx
