// B-tree structure-modification tests at the BTree level: multi-level
// splits, consolidation, height shrink, replay idempotence, and random
// SMO storms checked against tree invariants.
#include "dc/btree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dc/data_component.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

class BTreeSmoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StableStoreOptions store_options;
    store_options.page_size = 512;  // tiny pages: deep trees fast
    store_options.trailer_capacity = 96;
    store_ = std::make_unique<StableStore>(store_options);
    DataComponentOptions options;
    options.max_value_size = 64;
    dc_ = std::make_unique<DataComponent>(store_.get(), options);
    ASSERT_TRUE(dc_->Initialize().ok());
    // Arm + create through the op interface so dLSN bookkeeping is real.
    ControlRequest arm;
    arm.type = ControlType::kRestartEnd;
    arm.tc_id = 1;
    dc_->Control(arm);
    OperationRequest create;
    create.tc_id = 1;
    create.lsn = next_lsn_++;
    create.op = OpType::kCreateTable;
    create.table_id = kTable;
    ASSERT_TRUE(dc_->Perform(create).status.ok());
  }

  OperationReply Write(OpType op, const std::string& key,
                       const std::string& value = "") {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = op;
    req.table_id = kTable;
    req.key = key;
    req.value = value;
    return dc_->Perform(req);
  }

  void PushDurability() {
    ControlRequest eosl;
    eosl.type = ControlType::kEndOfStableLog;
    eosl.tc_id = 1;
    eosl.lsn = next_lsn_ - 1;
    dc_->Control(eosl);
    ControlRequest lwm;
    lwm.type = ControlType::kLowWaterMark;
    lwm.tc_id = 1;
    lwm.lsn = next_lsn_ - 1;
    dc_->Control(lwm);
  }

  std::unique_ptr<StableStore> store_;
  std::unique_ptr<DataComponent> dc_;
  Lsn next_lsn_ = 1;
};

TEST_F(BTreeSmoTest, DeepTreeFromSequentialInserts) {
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok()) << i;
  }
  const auto& stats = dc_->btree()->stats();
  EXPECT_GT(stats.splits, 20u);
  EXPECT_GT(stats.root_splits, 1u) << "tiny pages must grow height > 2";
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

TEST_F(BTreeSmoTest, ReverseOrderInserts) {
  for (int i = 1200; i > 0; --i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok()) << i;
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  // Every key present.
  for (int i = 1; i <= 1200; i += 13) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = OpType::kRead;
    req.table_id = kTable;
    req.key = Key(i);
    ASSERT_TRUE(dc_->Perform(req).status.ok()) << i;
  }
}

TEST_F(BTreeSmoTest, ConsolidationShrinksHeight) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  const uint64_t height_shrinks_before =
      dc_->btree()->stats().height_shrinks;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Write(OpType::kDelete, Key(i)).status.ok()) << i;
  }
  EXPECT_GT(dc_->btree()->stats().consolidates, 5u);
  EXPECT_GE(dc_->btree()->stats().height_shrinks, height_shrinks_before);
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

TEST_F(BTreeSmoTest, ReplayIsIdempotent) {
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  PushDurability();
  dc_->pool()->ForceDcLog();
  // Replaying the stable batches on a LIVE tree must change nothing
  // (every record is dLSN-guarded).
  ASSERT_TRUE(dc_->btree()->ReplayStableSmoBatches().ok());
  ASSERT_TRUE(dc_->btree()->ReplayStableSmoBatches().ok());
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  for (int i = 0; i < 600; i += 17) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = OpType::kRead;
    req.table_id = kTable;
    req.key = Key(i);
    auto reply = dc_->Perform(req);
    ASSERT_TRUE(reply.status.ok()) << i;
    ASSERT_EQ(reply.value, "vvvvvvvv");
  }
}

TEST_F(BTreeSmoTest, FreedPagesAreRecycled) {
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  PushDurability();
  const uint64_t high_water_full = store_->allocated_high_water();
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kDelete, Key(i)).status.ok());
  }
  PushDurability();
  dc_->pool()->ForceDcLog();  // executes deferred frees
  // Re-inserting must reuse freed pages instead of growing the store.
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  EXPECT_LE(store_->allocated_high_water(), high_water_full + 20)
      << "consolidated pages must return to the allocator";
}

// Concurrent loaders racing root splits: every descent must start from
// the CURRENT root. A descent that latched a page the cached root id
// named just before a split made a new root would finish in the wrong
// subtree and file the insert where no later read looks for it.
TEST_F(BTreeSmoTest, ConcurrentAscendingLoadsSurviveRootSplits) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  for (TcId tc = 2; tc <= kThreads; ++tc) {
    ControlRequest arm;
    arm.type = ControlType::kRestartEnd;
    arm.tc_id = tc;
    dc_->Control(arm);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kThreads; ++t) {
    loaders.emplace_back([this, t, &failures] {
      Lsn lsn = t == 0 ? next_lsn_ : 1;  // tc 1 already used its LSN 1
      for (int i = 0; i < kPerThread; ++i) {
        OperationRequest req;
        req.tc_id = static_cast<TcId>(t + 1);
        req.lsn = lsn++;
        req.op = OpType::kInsert;
        req.table_id = kTable;
        req.key = Key(t * kPerThread + i);
        req.value = "vvvvvvvv";
        if (!dc_->Perform(req).status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& loader : loaders) loader.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(dc_->btree()->stats().root_splits, 2u);
  ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  // Every acknowledged insert reads back.
  int missing = 0;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = 1000000 + static_cast<Lsn>(i);
    req.op = OpType::kRead;
    req.table_id = kTable;
    req.key = Key(i);
    if (!dc_->Perform(req).status.ok()) ++missing;
  }
  EXPECT_EQ(missing, 0);
}

class BTreeStormTest : public BTreeSmoTest,
                       public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BTreeStormTest, RandomSmoStormKeepsInvariantsAndModel) {
  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int step = 0; step < 4000; ++step) {
    const std::string key = Key(static_cast<int>(rng.Uniform(700)));
    if (rng.Bernoulli(0.6)) {
      const std::string value = rng.Bytes(4 + rng.Uniform(30));
      auto reply = Write(OpType::kUpsert, key, value);
      ASSERT_TRUE(reply.status.ok());
      model[key] = value;
    } else {
      auto reply = Write(OpType::kDelete, key);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.ok());
        model.erase(key);
      } else {
        ASSERT_TRUE(reply.status.IsNotFound());
      }
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok())
          << "step " << step;
    }
  }
  // Full-scan equivalence.
  OperationRequest scan;
  scan.tc_id = 1;
  scan.lsn = next_lsn_++;
  scan.op = OpType::kScanRange;
  scan.table_id = kTable;
  scan.limit = 100000;
  auto reply = dc_->Perform(scan);
  ASSERT_TRUE(reply.status.ok());
  ASSERT_EQ(reply.keys.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(reply.keys[i], k);
    ASSERT_EQ(reply.values[i], v);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeStormTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace untx
