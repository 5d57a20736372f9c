#include "tc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "tc/transaction_component.h"

namespace untx {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(2, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
  EXPECT_EQ(lm.HeldCount(2), 1u);
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManagerOptions options;
  options.wait_timeout_ms = 50;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(
      lm.Lock(2, RecordLockName(1, "k"), LockMode::kShared).IsTimedOut());
}

TEST(LockManagerTest, ReentrantAndModeSubsumption) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_EQ(lm.stats().upgrades, 1u);
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, RecordLockName(1, "k"), LockMode::kExclusive);
    granted.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "a"), LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Lock(2, RecordLockName(1, "b"), LockMode::kExclusive).ok());
  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(1, RecordLockName(1, "b"), LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    if (!s.ok()) lm.ReleaseAll(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread t2([&] {
    Status s = lm.Lock(2, RecordLockName(1, "a"), LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    if (!s.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1) << "one member of the cycle must abort";
}

TEST(LockManagerTest, FifoFairnessNoBarging) {
  LockManagerOptions options;
  options.wait_timeout_ms = 2000;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    ASSERT_TRUE(lm.Lock(2, RecordLockName(1, "k"), LockMode::kExclusive).ok());
    writer_granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // A reader arriving after the queued writer must not starve it.
  std::thread reader([&] {
    Status s = lm.Lock(3, RecordLockName(1, "k"), LockMode::kShared);
    // By FIFO, the writer went first.
    EXPECT_TRUE(writer_granted.load() || !s.ok());
    lm.ReleaseAll(3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.ReleaseAll(1);
  writer.join();
  lm.ReleaseAll(2);
  reader.join();
}

TEST(LockManagerTest, ReleaseAllDropsEverything) {
  LockManager lm;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        lm.Lock(1, RecordLockName(1, std::to_string(i)), LockMode::kShared)
            .ok());
  }
  EXPECT_EQ(lm.HeldCount(1), 10u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(1), 0u);
}

TEST(LockManagerTest, DistinctNameSpaces) {
  // Record, range, and EOF lock names must never collide.
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "x"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(2, RangeLockName(1, 0), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(3, TableEofLockName(1), LockMode::kExclusive).ok());
}

TEST(LockManagerTest, StressManyThreadsManyKeys) {
  LockManager lm;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&lm, &granted, t] {
      for (int i = 0; i < 500; ++i) {
        const TxnId txn = t * 1000 + i + 1;
        const std::string key = std::to_string(i % 37);
        if (lm.Lock(txn, RecordLockName(1, key), LockMode::kExclusive)
                .ok()) {
          granted.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 2000u);
}

TEST(LockManagerTest, DeadlockAcrossShardsDetected) {
  // The table is striped by name; a cycle whose two names live in
  // different shards must still be found, and nobody may hang.
  const std::string a = RecordLockName(1, "a");
  std::string b;
  for (int i = 0; b.empty(); ++i) {
    const std::string name = RecordLockName(1, "b" + std::to_string(i));
    if (LockManager::ShardIndex(name) != LockManager::ShardIndex(a)) b = name;
  }
  LockManagerOptions options;
  options.wait_timeout_ms = 20000;  // a missed cycle would sit this out
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, a, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Lock(2, b, LockMode::kExclusive).ok());
  std::atomic<int> deadlocks{0};
  std::atomic<int> granted{0};
  auto contend = [&](TxnId txn, const std::string& name) {
    Status s = lm.Lock(txn, name, LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    if (s.ok()) granted.fetch_add(1);
    lm.ReleaseAll(txn);
  };
  const auto start = std::chrono::steady_clock::now();
  std::thread t1(contend, 1, b);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread t2(contend, 2, a);
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1) << "one member of the cycle must abort";
  EXPECT_EQ(deadlocks.load() + granted.load(), 2);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  const LockManagerStats stats = lm.stats();
  EXPECT_EQ(stats.deadlocks, static_cast<uint64_t>(deadlocks.load()));
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST(LockManagerTest, StatsSumAcrossShards) {
  // The stress workload above, with its counts read back through stats():
  // 37 names spread over the shards, every Lock granted exactly once.
  LockManager lm;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  std::set<size_t> shards;
  for (int i = 0; i < 37; ++i) {
    shards.insert(
        LockManager::ShardIndex(RecordLockName(1, std::to_string(i))));
  }
  ASSERT_GT(shards.size(), 1u);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&lm, &granted, t] {
      for (int i = 0; i < 500; ++i) {
        const TxnId txn = t * 1000 + i + 1;
        const std::string key = std::to_string(i % 37);
        if (lm.Lock(txn, RecordLockName(1, key), LockMode::kExclusive)
                .ok()) {
          granted.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  const LockManagerStats stats = lm.stats();
  EXPECT_EQ(granted.load(), 2000u);
  EXPECT_EQ(stats.acquisitions, 2000u);
  EXPECT_LE(stats.waits, stats.acquisitions);
  EXPECT_EQ(stats.deadlocks, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.upgrades, 0u);
}

TEST(LockManagerTest, ResetWakesBlockedLock) {
  // A TC crash resets the manager in place while a client thread is still
  // blocked inside Lock(): the waiter must return, not touch freed state.
  LockManagerOptions options;
  options.wait_timeout_ms = 20000;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  Status waited;
  std::thread waiter([&] {
    waited = lm.Lock(2, RecordLockName(1, "k"), LockMode::kShared);
  });
  while (lm.stats().waits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  lm.Reset();
  waiter.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(waited.IsCrashed()) << waited.ToString();
  EXPECT_EQ(lm.HeldCount(1), 0u);
  EXPECT_EQ(lm.stats().acquisitions, 0u);
  // The reset manager is usable: the name is free again.
  EXPECT_TRUE(lm.Lock(3, RecordLockName(1, "k"), LockMode::kExclusive).ok());
}

TEST(RangePartitionTest, PartitionOfRespectsBoundaries) {
  RangePartitionConfig cfg;
  cfg.boundaries = {"g", "n", "t"};
  EXPECT_EQ(cfg.Count(), 4u);
  EXPECT_EQ(cfg.PartitionOf("a"), 0u);
  EXPECT_EQ(cfg.PartitionOf("g"), 1u);
  EXPECT_EQ(cfg.PartitionOf("m"), 1u);
  EXPECT_EQ(cfg.PartitionOf("n"), 2u);
  EXPECT_EQ(cfg.PartitionOf("z"), 3u);
}

TEST(RangePartitionTest, OverlappingRange) {
  RangePartitionConfig cfg;
  cfg.boundaries = {"g", "n", "t"};
  auto [lo, hi] = cfg.Overlapping("c", "p");
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
  auto [lo2, hi2] = cfg.Overlapping("h", "");
  EXPECT_EQ(lo2, 1u);
  EXPECT_EQ(hi2, 3u);
}

TEST(RangePartitionTest, EmptyConfigIsWholeTable) {
  RangePartitionConfig cfg;
  EXPECT_EQ(cfg.Count(), 1u);
  EXPECT_EQ(cfg.PartitionOf("anything"), 0u);
  auto [lo, hi] = cfg.Overlapping("a", "z");
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
}

}  // namespace
}  // namespace untx
