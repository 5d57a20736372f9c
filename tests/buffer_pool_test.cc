// BufferPool unit tests: the three flush gates (DC-log WAL, TC-log
// causality, page-sync strategy), LWM folding, the trailer round trip,
// and the LWM-validity arming protocol — exercised directly, without a
// DataComponent on top.
#include "dc/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dc/dc_log.h"
#include "storage/stable_store.h"

namespace untx {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : store_(), dc_log_() {}

  BufferPool MakePool(PageSyncStrategy strategy,
                      uint32_t hybrid_cap = 4) {
    BufferPoolOptions options;
    options.strategy = strategy;
    options.hybrid_cap = hybrid_cap;
    return BufferPool(&store_, &dc_log_, options);
  }

  /// Creates a formatted, dirty page with one op from tc at lsn.
  Frame* MakeDirtyPage(BufferPool* pool, PageId pid, TcId tc, Lsn lsn) {
    Frame* frame = pool->Create(pid);
    SlottedPage page = frame->Page(pool->page_size(),
                                   pool->trailer_capacity());
    page.Init(pid, PageType::kLeaf, 0, 1);
    frame->ablsn.Add(tc, lsn);
    frame->first_op_lsn = lsn;
    return frame;  // still pinned
  }

  StableStore store_;
  DcLog dc_log_;
};

TEST_F(BufferPoolTest, CausalityGateBlocksUntilEosl) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, /*tc=*/1, /*lsn=*/10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "op 10 is beyond the (empty) stable TC log";
  }
  pool.OnEndOfStableLog(1, 9);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy()) << "EOSL 9 < op 10";
  }
  pool.OnEndOfStableLog(1, 10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  EXPECT_FALSE(frame->dirty);
  EXPECT_TRUE(store_.Exists(pid));
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, CausalityGateIsPerTc) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  frame->ablsn.Add(2, 20);  // second TC on the same page (§6.1.1)
  pool.OnEndOfStableLog(1, 100);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "tc 2's op 20 is not on tc 2's stable log";
  }
  pool.OnEndOfStableLog(2, 20);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, WalGateBlocksUntilDcLogStable) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 5);
  // Stamp a page dLSN for an SMO whose batch cannot be forced yet
  // (causality floor above the TC's EOSL).
  std::vector<DcLogRecord> recs(1);
  recs[0].type = DcLogRecordType::kPageImage;
  recs[0].pid = pid;
  recs[0].body = "x";
  dc_log_.AppendBatch(&recs, {{1, 50}});
  {
    ExclusiveLatchGuard latch(&frame->latch);
    frame->Page(pool.page_size(), pool.trailer_capacity())
        .set_dlsn(recs[0].dlsn);
  }
  pool.OnEndOfStableLog(1, 5);  // op 5 stable, but the SMO floor is 50
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "page's SMO record is not on the stable DC log";
  }
  pool.OnEndOfStableLog(1, 50);  // floor met -> batch forcible
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, WaitForLwmStrategyNeedsCollapse) {
  BufferPool pool = MakePool(PageSyncStrategy::kWaitForLwm);
  pool.AllowLwm(1);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.OnEndOfStableLog(1, 10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy());
  }
  EXPECT_TRUE(frame->flush_waiting);
  // LWM reaches the op: abLSN collapses, the parked flush completes
  // (OnLowWaterMark retries it).
  pool.OnLowWaterMark(1, 10);
  EXPECT_FALSE(frame->dirty);
  EXPECT_FALSE(frame->flush_waiting);
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, HybridStrategyRespectsCap) {
  BufferPool pool = MakePool(PageSyncStrategy::kHybrid, /*hybrid_cap=*/2);
  pool.AllowLwm(1);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  frame->ablsn.Add(1, 12);
  frame->ablsn.Add(1, 14);  // in-set size 3 > cap 2
  pool.OnEndOfStableLog(1, 14);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy());
  }
  pool.OnLowWaterMark(1, 12);  // prunes to {14}: size 1 <= cap
  EXPECT_FALSE(frame->dirty);
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, TrailerRoundTripThroughStore) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 3, 77);
  frame->ablsn.Add(3, 99);
  pool.OnEndOfStableLog(3, 99);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    ASSERT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
  // A second pool (fresh cache) must recover the abLSN from the trailer.
  BufferPool pool2 = MakePool(PageSyncStrategy::kStoreFull);
  Frame* reloaded = nullptr;
  ASSERT_TRUE(pool2.Fetch(pid, &reloaded).ok());
  EXPECT_TRUE(reloaded->ablsn.Covers(3, 77));
  EXPECT_TRUE(reloaded->ablsn.Covers(3, 99));
  EXPECT_FALSE(reloaded->ablsn.Covers(3, 100));
  pool2.Unpin(reloaded);
}

TEST_F(BufferPoolTest, LwmIgnoredUntilArmed) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.OnLowWaterMark(1, 100);
  EXPECT_EQ(pool.lwm_for(1), 0u) << "un-armed LWM must be dropped";
  pool.AllowLwm(1);
  pool.OnLowWaterMark(1, 100);
  EXPECT_EQ(pool.lwm_for(1), 100u);
  pool.DisallowLwm(1);
  EXPECT_EQ(pool.lwm_for(1), 0u) << "disarming revokes the stored LWM";
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, ConsolidationSafetyTracksArming) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  EXPECT_TRUE(pool.ConsolidationSafe()) << "no TCs known yet";
  pool.OnEndOfStableLog(1, 5);
  EXPECT_FALSE(pool.ConsolidationSafe())
      << "tc 1 has spoken but not re-armed: its redo may be in flight";
  pool.AllowLwm(1);
  EXPECT_TRUE(pool.ConsolidationSafe());
  pool.OnEndOfStableLog(2, 5);  // a second, un-armed TC appears
  EXPECT_FALSE(pool.ConsolidationSafe());
  pool.AllowLwm(2);
  EXPECT_TRUE(pool.ConsolidationSafe());
}

TEST_F(BufferPoolTest, EvictionPrefersCleanLru) {
  BufferPoolOptions options;
  options.capacity = 2;
  options.strategy = PageSyncStrategy::kStoreFull;
  BufferPool pool(&store_, &dc_log_, options);
  pool.OnEndOfStableLog(1, 100);
  // Two clean pages, then a third triggers eviction of the oldest.
  std::vector<PageId> pids;
  for (int i = 0; i < 3; ++i) {
    const PageId pid = store_.Allocate();
    pids.push_back(pid);
    Frame* frame = MakeDirtyPage(&pool, pid, 1, 10 + i);
    {
      ExclusiveLatchGuard latch(&frame->latch);
      ASSERT_TRUE(pool.TryFlushLocked(frame).ok());
    }
    pool.Unpin(frame);
  }
  EXPECT_LE(pool.FrameCount(), 2u);
  EXPECT_GT(pool.stats().evictions, 0u);
  // The evicted page is still fetchable from the store.
  Frame* back = nullptr;
  ASSERT_TRUE(pool.Fetch(pids[0], &back).ok());
  pool.Unpin(back);
}

// ForceDcLog executes a consolidation's deferred page free. While a
// reader still pins the freed page's retired frame (the injected long
// pin), the id must stay allocated: the store hands freed ids out again
// LIFO, and a page created under the id would replace the pinned frame.
TEST_F(BufferPoolTest, FreeOfPinnedPageWaitsForItsFrame) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* held = MakeDirtyPage(&pool, pid, 1, 10);  // the long pin
  std::vector<DcLogRecord> recs(1);
  recs[0].type = DcLogRecordType::kPageFree;
  recs[0].pid = pid;
  dc_log_.AppendBatch(&recs, {}, {pid});
  pool.ForceDcLog();  // the batch is stable: its free is due
  const PageId next = store_.Allocate();
  EXPECT_NE(next, pid) << "a pinned frame's page id was reused";
  Frame* again = nullptr;
  ASSERT_TRUE(pool.Fetch(pid, &again).ok());
  EXPECT_EQ(again, held) << "the pinned frame must still be the cached one";
  pool.Unpin(again);
  pool.Unpin(held);  // the pin drains
  pool.ForceDcLog();  // the deferred free runs now
  EXPECT_EQ(store_.Allocate(), pid) << "freed once the frame is gone";
  EXPECT_EQ(pool.FrameCount(), 0u);
}

// Four threads fetch and unpin cached pages (mostly hits) while a small
// capacity forces eviction on every miss, a fifth thread drops frames and
// a sixth runs flush passes. A frame is never evicted or dropped while
// pinned (ASan sees a use-after-free otherwise; without it, the pinned
// frame would change identity), pins never go negative, and the counters
// add up.
TEST_F(BufferPoolTest, ConcurrentHitsRaceEvictionAndDrop) {
  BufferPoolOptions options;
  options.capacity = 24;
  options.strategy = PageSyncStrategy::kStoreFull;
  BufferPool pool(&store_, &dc_log_, options);
  pool.OnEndOfStableLog(1, 1000);
  constexpr int kPages = 48;
  std::vector<PageId> pids;
  for (int i = 0; i < kPages; ++i) {
    const PageId pid = store_.Allocate();
    pids.push_back(pid);
    Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
    {
      ExclusiveLatchGuard latch(&frame->latch);
      ASSERT_TRUE(pool.TryFlushLocked(frame).ok());
    }
    pool.Unpin(frame);
  }
  const BufferPoolStats before = pool.stats();

  constexpr int kReaders = 4;
  constexpr int kFetchesPerReader = 20000;
  std::atomic<int> readers_done{0};
  std::atomic<int> bad_pins{0};
  std::atomic<int> wrong_frames{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(100 + t);
      for (int i = 0; i < kFetchesPerReader; ++i) {
        // Skewed: a quarter of the pages take most fetches (hits).
        const PageId pid = pids[rnd.Uniform(4) == 0 ? rnd.Uniform(kPages)
                                                     : rnd.Uniform(12)];
        Frame* frame = nullptr;
        if (!pool.Fetch(pid, &frame).ok()) {
          wrong_frames.fetch_add(1);
          continue;
        }
        if (frame->pins.load() < 1) bad_pins.fetch_add(1);
        {
          SharedLatchGuard latch(&frame->latch);
          const SlottedPage page =
              frame->Page(pool.page_size(), pool.trailer_capacity());
          if (frame->pid != pid || page.page_id() != pid) {
            wrong_frames.fetch_add(1);
          }
        }
        std::this_thread::yield();
        if (frame->pid != pid) wrong_frames.fetch_add(1);
        pool.Unpin(frame);
      }
      readers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    Random rnd(7);
    while (readers_done.load() < kReaders) {
      pool.Drop(pids[rnd.Uniform(kPages)]);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    while (readers_done.load() < kReaders) {
      pool.FlushAllEligible();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_pins.load(), 0);
  EXPECT_EQ(wrong_frames.load(), 0);
  const BufferPoolStats after = pool.stats();
  EXPECT_EQ(after.fetches - before.fetches,
            static_cast<uint64_t>(kReaders) * kFetchesPerReader);
  EXPECT_GT(after.hits - before.hits, 0u);
  EXPECT_GT(after.evictions - before.evictions, 0u);
  EXPECT_EQ(after.overflows, before.overflows) << "every frame was clean";
  EXPECT_LE(pool.FrameCount(), options.capacity);
  // Every pin was returned: each cached frame pins to exactly 1 now.
  for (PageId pid : pool.CachedPages()) {
    Frame* frame = nullptr;
    ASSERT_TRUE(pool.Fetch(pid, &frame).ok());
    EXPECT_EQ(frame->pins.load(), 1) << "page " << pid;
    pool.Unpin(frame);
  }
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  pool.AllowLwm(1);
  pool.OnEndOfStableLog(1, 50);
  pool.OnLowWaterMark(1, 50);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.Unpin(frame);
  pool.Clear();
  EXPECT_EQ(pool.FrameCount(), 0u);
  EXPECT_EQ(pool.eosl_for(1), 0u);
  EXPECT_EQ(pool.lwm_for(1), 0u);
  EXPECT_FALSE(pool.LwmAllowed(1)) << "crash disarms every TC's LWM";
}

}  // namespace
}  // namespace untx
