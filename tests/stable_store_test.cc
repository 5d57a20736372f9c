#include "storage/stable_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace untx {
namespace {

std::vector<char> MakePageData(uint32_t page_size, char fill) {
  std::vector<char> data(page_size, fill);
  return data;
}

TEST(StableStoreTest, WriteReadRoundTrip) {
  StableStore store;
  const PageId pid = store.Allocate();
  auto data = MakePageData(store.page_size(), 'a');
  ASSERT_TRUE(store.Write(pid, data.data()).ok());
  std::vector<char> out(store.page_size());
  ASSERT_TRUE(store.Read(pid, out.data()).ok());
  // Bytes [4, end) must match (bytes [0,4) hold the store-stamped CRC).
  EXPECT_EQ(memcmp(data.data() + 4, out.data() + 4, store.page_size() - 4),
            0);
}

TEST(StableStoreTest, ReadMissingPageFails) {
  StableStore store;
  std::vector<char> out(store.page_size());
  EXPECT_TRUE(store.Read(999, out.data()).IsNotFound());
}

TEST(StableStoreTest, AllocateIsMonotonicThenRecycles) {
  StableStore store;
  const PageId a = store.Allocate();
  const PageId b = store.Allocate();
  EXPECT_NE(a, b);
  store.Free(a);
  const PageId c = store.Allocate();
  EXPECT_EQ(c, a);  // recycled
}

TEST(StableStoreTest, FreeIsIdempotent) {
  StableStore store;
  const PageId a = store.Allocate();
  store.Free(a);
  store.Free(a);
  const PageId b = store.Allocate();
  const PageId c = store.Allocate();
  EXPECT_NE(b, c);  // the double-free must not hand out `a` twice
}

TEST(StableStoreTest, FreeDropsContents) {
  StableStore store;
  const PageId a = store.Allocate();
  auto data = MakePageData(store.page_size(), 'x');
  ASSERT_TRUE(store.Write(a, data.data()).ok());
  store.Free(a);
  std::vector<char> out(store.page_size());
  EXPECT_TRUE(store.Read(a, out.data()).IsNotFound());
}

TEST(StableStoreTest, CorruptionDetected) {
  StableStore store;
  const PageId pid = store.Allocate();
  auto data = MakePageData(store.page_size(), 'q');
  ASSERT_TRUE(store.Write(pid, data.data()).ok());
  store.CorruptForTest(pid, 100);
  std::vector<char> out(store.page_size());
  EXPECT_TRUE(store.Read(pid, out.data()).IsCorruption());
}

TEST(StableStoreTest, OverwriteReplacesContents) {
  StableStore store;
  const PageId pid = store.Allocate();
  auto v1 = MakePageData(store.page_size(), '1');
  auto v2 = MakePageData(store.page_size(), '2');
  ASSERT_TRUE(store.Write(pid, v1.data()).ok());
  ASSERT_TRUE(store.Write(pid, v2.data()).ok());
  std::vector<char> out(store.page_size());
  ASSERT_TRUE(store.Read(pid, out.data()).ok());
  EXPECT_EQ(out[10], '2');
}

TEST(StableStoreTest, WriteFaultInjection) {
  StableStoreOptions options;
  options.write_fail_prob = 1.0;
  StableStore store(options);
  const PageId pid = store.Allocate();
  auto data = MakePageData(store.page_size(), 'f');
  EXPECT_TRUE(store.Write(pid, data.data()).IsIOError());
}

TEST(StableStoreTest, StatsCount) {
  StableStore store;
  const PageId pid = store.Allocate();
  auto data = MakePageData(store.page_size(), 's');
  ASSERT_TRUE(store.Write(pid, data.data()).ok());
  std::vector<char> out(store.page_size());
  ASSERT_TRUE(store.Read(pid, out.data()).ok());
  ASSERT_TRUE(store.Read(pid, out.data()).ok());
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 2u);
  EXPECT_EQ(store.LivePageCount(), 1u);
}

TEST(StableStoreTest, CustomPageSize) {
  StableStoreOptions options;
  options.page_size = 512;
  StableStore store(options);
  EXPECT_EQ(store.page_size(), 512u);
  const PageId pid = store.Allocate();
  auto data = MakePageData(512, 'z');
  ASSERT_TRUE(store.Write(pid, data.data()).ok());
  std::vector<char> out(512);
  ASSERT_TRUE(store.Read(pid, out.data()).ok());
}

TEST(StableStoreTest, RewriteOfFreedPageRevives) {
  StableStore store;
  const PageId pid = store.Allocate();
  store.Free(pid);
  auto data = MakePageData(store.page_size(), 'r');
  ASSERT_TRUE(store.Write(pid, data.data()).ok());
  std::vector<char> out(store.page_size());
  EXPECT_TRUE(store.Read(pid, out.data()).ok());
  // The page must no longer be handed out by Allocate.
  const PageId other = store.Allocate();
  EXPECT_NE(other, pid);
}

// Readers, writers and a corrupter race on a few pages. The checksum is
// computed outside the store's lock on both paths, but every Read still
// returns one whole written version (each version fills the page with a
// single byte) or Corruption — never a mix of two versions. The read and
// write counters match the successful calls.
TEST(StableStoreTest, ConcurrentReadsSeeWholeVersionsOrCorruption) {
  StableStore store;
  const uint32_t ps = store.page_size();
  constexpr int kPages = 4;
  std::vector<PageId> pids;
  for (int i = 0; i < kPages; ++i) {
    pids.push_back(store.Allocate());
    auto data = MakePageData(ps, 1);
    ASSERT_TRUE(store.Write(pids.back(), data.data()).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_writes{kPages};
  std::atomic<uint64_t> ok_reads{0};
  std::atomic<uint64_t> corrupt_reads{0};
  std::atomic<uint64_t> torn_reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      std::vector<char> data(ps);
      for (int v = 0; v < 1500; ++v) {
        std::memset(data.data(), 1 + (w * 100 + v) % 250, ps);
        if (store.Write(pids[v % kPages], data.data()).ok()) {
          ok_writes.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<char> out(ps);
      for (int i = 0; !stop.load(); ++i) {
        Status s = store.Read(pids[(i + r) % kPages], out.data());
        if (s.IsCorruption()) {
          corrupt_reads.fetch_add(1);
          continue;
        }
        ASSERT_TRUE(s.ok()) << s.ToString();
        ok_reads.fetch_add(1);
        const char fill = out[4];
        for (uint32_t b = 4; b < ps; ++b) {
          if (out[b] != fill) {
            torn_reads.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  std::thread corrupter([&] {
    for (int i = 0; !stop.load(); ++i) {
      store.CorruptForTest(pids[i % kPages], 4 + (i * 131) % (ps - 4));
      std::this_thread::yield();
    }
  });
  threads[0].join();
  threads[1].join();
  stop.store(true);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
  corrupter.join();

  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_GT(ok_reads.load(), 0u);
  EXPECT_EQ(store.reads(), ok_reads.load());
  EXPECT_EQ(store.writes(), ok_writes.load());
  // A rewrite heals a corrupted page.
  auto data = MakePageData(ps, 7);
  std::vector<char> out(ps);
  for (PageId pid : pids) {
    ASSERT_TRUE(store.Write(pid, data.data()).ok());
    ASSERT_TRUE(store.Read(pid, out.data()).ok());
    EXPECT_EQ(memcmp(data.data() + 4, out.data() + 4, ps - 4), 0);
  }
}

}  // namespace
}  // namespace untx
