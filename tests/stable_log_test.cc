#include "wal/stable_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace untx {
namespace {

TEST(StableLogTest, AppendForceRead) {
  StableLog log;
  const uint64_t i0 = log.Append("zero");
  const uint64_t i1 = log.Append("one");
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(log.stable_end(), 0u);
  EXPECT_EQ(log.Force(), 2u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(0, &out).ok());
  EXPECT_EQ(out, "zero");
  ASSERT_TRUE(log.ReadAt(1, &out).ok());
  EXPECT_EQ(out, "one");
}

TEST(StableLogTest, CrashDropsVolatileTail) {
  StableLog log;
  log.Append("durable");
  log.Force();
  log.Append("lost");
  log.Crash();
  EXPECT_EQ(log.total_end(), 1u);
  std::string out;
  EXPECT_TRUE(log.ReadAt(1, &out).IsNotFound());
  ASSERT_TRUE(log.ReadAt(0, &out).ok());
  EXPECT_EQ(out, "durable");
}

TEST(StableLogTest, UnsealedReservationBlocksForce) {
  StableLog log;
  const StableLog::Reservation r = log.Reserve();
  log.Append("after-hole");  // sealed, but behind the reservation
  EXPECT_EQ(log.Force(), 0u) << "force must not pass an unsealed record";
  EXPECT_TRUE(log.Seal(r, "hole-filled"));
  EXPECT_EQ(log.Force(), 2u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(r.index, &out).ok());
  EXPECT_EQ(out, "hole-filled");
}

TEST(StableLogTest, SealedPrefixEndTracksHoles) {
  StableLog log;
  log.Append("a");
  const StableLog::Reservation hole = log.Reserve();
  log.Append("c");
  EXPECT_EQ(log.sealed_prefix_end(), 1u);
  log.Seal(hole, "b");
  EXPECT_EQ(log.sealed_prefix_end(), 3u);
}

TEST(StableLogTest, CrashDropsUnsealedReservations) {
  StableLog log;
  log.Append("keep");
  log.Force();
  log.Reserve();  // never sealed
  log.Append("volatile");
  log.Crash();
  EXPECT_EQ(log.total_end(), 1u);
  // After crash, new appends reuse the freed indices.
  EXPECT_EQ(log.Append("fresh"), 1u);
}

TEST(StableLogTest, ReadUnsealedIsBusy) {
  StableLog log;
  const StableLog::Reservation r = log.Reserve();
  std::string out;
  EXPECT_TRUE(log.ReadAt(r.index, &out).IsBusy());
}

TEST(StableLogTest, ForceToStopsAtIndex) {
  StableLog log;
  log.Append("a");
  log.Append("b");
  log.Append("c");
  EXPECT_EQ(log.ForceTo(1), 2u);
  EXPECT_EQ(log.stable_end(), 2u);
}

TEST(StableLogTest, TruncatePrefixKeepsIndices) {
  StableLog log;
  log.Append("a");
  log.Append("b");
  log.Append("c");
  log.Force();
  log.TruncatePrefix(2);
  EXPECT_EQ(log.truncated_prefix(), 2u);
  std::string out;
  EXPECT_TRUE(log.ReadAt(0, &out).IsNotFound());
  EXPECT_TRUE(log.ReadAt(1, &out).IsNotFound());
  ASSERT_TRUE(log.ReadAt(2, &out).ok());
  EXPECT_EQ(out, "c");
  // New appends continue from the old numbering.
  EXPECT_EQ(log.Append("d"), 3u);
}

TEST(StableLogTest, TruncateNeverEntersVolatileRegion) {
  StableLog log;
  log.Append("a");
  log.Force();
  log.Append("b");           // volatile
  log.TruncatePrefix(100);   // clamped to stable_end = 1
  EXPECT_EQ(log.truncated_prefix(), 1u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(1, &out).ok());
  EXPECT_EQ(out, "b");
}

// A force sleeps (force_delay_us) with the mutex dropped. Meanwhile a
// second force can make more records stable and a checkpoint can
// truncate past the sleeper's target; the sleeper must re-derive its
// position from stable_end, not index the truncated prefix.
TEST(StableLogTest, ForceSurvivesTruncationDuringItsDelay) {
  StableLogOptions options;
  options.force_delay_us = 400000;
  StableLog log(options);
  for (int i = 0; i < 5; ++i) log.Append("a");  // 0-4
  // A: targets 5, then sleeps.
  std::thread a([&log] { log.ForceTo(4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 5; ++i) log.Append("b");  // 5-9
  // B: targets 10 (stable_end is still 0), then sleeps.
  std::thread b([&log] { log.ForceTo(9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 5; ++i) log.Append("c");  // 10-14, before A wakes
  // A wakes (t=400ms) and makes 0-14 stable; the checkpoint truncates
  // all of it while B (wakes at t=500ms) still holds target 10.
  while (log.stable_end() < 15) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  log.TruncatePrefix(15);
  a.join();
  b.join();
  EXPECT_EQ(log.stable_end(), 15u);
  EXPECT_EQ(log.truncated_prefix(), 15u);
  EXPECT_EQ(log.Append("d"), 15u);
  EXPECT_EQ(log.Force(), 16u);
}

// A Crash() during a force's unlocked delay drops the records the sleeper
// counted toward its target. On waking it must start over from
// stable_end: neither the dropped records nor a fresh, unsealed
// reservation at a reused index may become stable.
TEST(StableLogTest, ForceSurvivesCrashDuringItsDelay) {
  StableLogOptions options;
  options.force_delay_us = 300000;
  StableLog log(options);
  for (int i = 0; i < 5; ++i) log.Append("a");  // 0-4, all volatile
  std::thread forcer([&log] { log.ForceTo(4); });  // targets 5, sleeps
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  log.Crash();
  const StableLog::Reservation hole = log.Reserve();
  forcer.join();
  EXPECT_EQ(hole.index, 0u);
  EXPECT_EQ(log.stable_end(), 0u);
  EXPECT_EQ(log.total_end(), 1u);
  EXPECT_EQ(log.Append("b"), 1u);
  EXPECT_EQ(log.Force(), 0u) << "the unsealed reservation blocks the force";
  EXPECT_TRUE(log.Seal(hole, "a2"));
  EXPECT_EQ(log.Force(), 2u);
}

// The same race against Clear() with a backing file: the woken force must
// not persist records that are gone, and the file holds only what was
// forced after the wipe.
TEST(StableLogTest, ForceSurvivesClearDuringItsDelayWithBackingFile) {
  const std::string path = ::testing::TempDir() + "stable_log_clear_race.log";
  std::remove(path.c_str());
  {
    StableLogOptions options;
    options.force_delay_us = 300000;
    options.path = path;
    StableLog log(options);
    for (int i = 0; i < 5; ++i) log.Append("a");
    std::thread forcer([&log] { log.ForceTo(4); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    log.Clear();
    forcer.join();
    EXPECT_EQ(log.stable_end(), 0u);
    EXPECT_EQ(log.total_end(), 0u);
    EXPECT_EQ(log.Append("after-clear"), 0u);
    EXPECT_EQ(log.Force(), 1u);
  }
  StableLogOptions options;
  options.path = path;
  StableLog reloaded(options);
  EXPECT_EQ(reloaded.stable_end(), 1u);
  std::string out;
  ASSERT_TRUE(reloaded.ReadAt(0, &out).ok());
  EXPECT_EQ(out, "after-clear");
  std::remove(path.c_str());
}

// A reservation made before a Crash() names an index the crash dropped
// and the next Reserve hands out again. Its late Seal must not land.
TEST(StableLogTest, SealOfPreCrashReservationIsDropped) {
  StableLog log;
  log.Append("durable");
  log.Force();
  const StableLog::Reservation stale = log.Reserve();
  log.Crash();
  EXPECT_FALSE(log.Seal(stale, "stale"));
  const StableLog::Reservation fresh = log.Reserve();
  EXPECT_EQ(fresh.index, stale.index) << "the crash frees the index";
  EXPECT_EQ(log.sealed_prefix_end(), 1u)
      << "the stale seal must not seal the new reservation";
  std::string out;
  EXPECT_TRUE(log.ReadAt(fresh.index, &out).IsBusy());
  EXPECT_TRUE(log.Seal(fresh, "fresh"));
  ASSERT_TRUE(log.ReadAt(fresh.index, &out).ok());
  EXPECT_EQ(out, "fresh");
  EXPECT_EQ(log.Force(), 2u);
}

// Records span many fixed-size segments; truncation frees whole segments
// and the survivors keep their indices and payloads.
TEST(StableLogTest, RecordsSpanSegmentsAndSurviveTruncation) {
  StableLog log;
  constexpr uint64_t kRecords = 5000;
  for (uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(log.Append(std::to_string(i)), i);
  }
  EXPECT_EQ(log.Force(), kRecords);
  log.TruncatePrefix(3000);
  std::string out;
  EXPECT_TRUE(log.ReadAt(2999, &out).IsNotFound());
  ASSERT_TRUE(log.ReadAt(3000, &out).ok());
  EXPECT_EQ(out, "3000");
  for (uint64_t i = kRecords; i < 2 * kRecords; ++i) {
    ASSERT_EQ(log.Append(std::to_string(i)), i);
  }
  log.TruncatePrefix(9500);  // clamped: only 0-4999 are stable
  EXPECT_EQ(log.truncated_prefix(), kRecords);
  EXPECT_EQ(log.Force(), 2 * kRecords);
  log.TruncatePrefix(9500);
  for (uint64_t i : {9500ull, 9999ull}) {
    ASSERT_TRUE(log.ReadAt(i, &out).ok());
    EXPECT_EQ(out, std::to_string(i));
  }
  log.Append("volatile");
  log.Crash();
  EXPECT_EQ(log.total_end(), 2 * kRecords);
  EXPECT_EQ(log.Append("next"), 2 * kRecords);
}

// A backing file replays across segment boundaries and truncate markers.
TEST(StableLogTest, BackingFileReloadsAcrossSegments) {
  const std::string path = ::testing::TempDir() + "stable_log_segments.log";
  std::remove(path.c_str());
  {
    StableLogOptions options;
    options.path = path;
    StableLog log(options);
    for (int i = 0; i < 3000; ++i) log.Append(std::to_string(i));
    log.Force();
    log.TruncatePrefix(1500);
    log.Append("volatile");  // never forced: not in the file
  }
  StableLogOptions options;
  options.path = path;
  StableLog reloaded(options);
  EXPECT_EQ(reloaded.truncated_prefix(), 1500u);
  EXPECT_EQ(reloaded.stable_end(), 3000u);
  EXPECT_EQ(reloaded.total_end(), 3000u);
  std::string out;
  ASSERT_TRUE(reloaded.ReadAt(2048, &out).ok());
  EXPECT_EQ(out, "2048");
  EXPECT_EQ(reloaded.Append("more"), 3000u);
  std::remove(path.c_str());
}

// Four appenders (Reserve/Seal pairs that hold their reservation open for
// a moment, and Appends) race a forcer, checkpoint truncation and
// crashes. Indices are unique within an epoch, a force never passes a
// held reservation, and the surviving stable prefix holds exactly what
// each index's appender wrote, with no pre-crash seal among them.
TEST(StableLogTest, ConcurrentAppendersRaceForceTruncateAndCrash) {
  StableLog log;
  constexpr int kAppenders = 4;
  constexpr int kOpsPerAppender = 20000;
  // Odd while a crash is in progress.
  std::atomic<uint64_t> crash_gen{0};
  std::atomic<int> appenders_done{0};
  std::atomic<int> prefix_violations{0};
  std::vector<std::vector<StableLog::Reservation>> claimed(kAppenders);

  auto encode = [](const StableLog::Reservation& r) {
    return std::to_string(r.epoch) + ":" + std::to_string(r.index);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerAppender; ++i) {
        if (i % 3 == 0) {
          const uint64_t gen = crash_gen.load();
          const StableLog::Reservation r = log.Reserve();
          claimed[t].push_back(r);
          std::this_thread::yield();
          const uint64_t stable = log.stable_end();
          if (gen % 2 == 0 && crash_gen.load() == gen && stable > r.index) {
            prefix_violations.fetch_add(1);
          }
          log.Seal(r, encode(r));
        } else {
          // Append's index is only known afterwards: write a marker the
          // checker recognises, then record the claim.
          const uint64_t index = log.Append("append");
          claimed[t].push_back(StableLog::Reservation{index, 0});
        }
      }
      appenders_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (appenders_done.load() < kAppenders) {
      log.Force();
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    while (appenders_done.load() < kAppenders) {
      const uint64_t stable = log.stable_end();
      if (stable > 64) log.TruncatePrefix(stable - 64);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  threads.emplace_back([&] {
    while (appenders_done.load() < kAppenders) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      crash_gen.fetch_add(1);
      log.Crash();
      crash_gen.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_GT(crash_gen.load(), 2u) << "the crashes must overlap the appends";
  EXPECT_EQ(prefix_violations.load(), 0);
  // Reserve/Seal claims carry their epoch: unique per (epoch, index).
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const auto& per_thread : claimed) {
    for (const StableLog::Reservation& r : per_thread) {
      if (r.epoch == 0) continue;  // an Append
      EXPECT_TRUE(seen.insert({r.epoch, r.index}).second)
          << "index " << r.index << " handed out twice in epoch " << r.epoch;
    }
  }
  // Everything left is sealed, so a final force takes it all, and the
  // stable prefix reads back in index order with non-decreasing epochs.
  EXPECT_EQ(log.Force(), log.total_end());
  EXPECT_EQ(log.sealed_prefix_end(), log.total_end());
  uint64_t last_epoch = 0;
  for (uint64_t i = log.truncated_prefix(); i < log.stable_end(); ++i) {
    std::string out;
    ASSERT_TRUE(log.ReadAt(i, &out).ok()) << i;
    if (out == "append") continue;
    const size_t colon = out.find(':');
    ASSERT_NE(colon, std::string::npos) << out;
    const uint64_t epoch = std::stoull(out.substr(0, colon));
    EXPECT_EQ(std::stoull(out.substr(colon + 1)), i) << "record " << i;
    EXPECT_GE(epoch, last_epoch) << "a pre-crash seal landed at " << i;
    last_epoch = epoch;
  }
}

TEST(StableLogTest, WaitStableThroughBlocksUntilForce) {
  StableLog log;
  const uint64_t idx = log.Append("commit-record");
  std::thread forcer([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Force();
  });
  EXPECT_TRUE(log.WaitStableThrough(idx, 1000));
  forcer.join();
}

TEST(StableLogTest, WaitStableTimesOut) {
  StableLog log;
  const uint64_t idx = log.Append("never-forced");
  EXPECT_FALSE(log.WaitStableThrough(idx, 20));
}

TEST(StableLogTest, StatsAccumulate) {
  StableLog log;
  log.Append("12345");
  log.Append("678");
  log.Force();
  EXPECT_EQ(log.bytes_appended(), 8u);
  EXPECT_EQ(log.force_count(), 1u);
  log.Force();  // nothing new: no device write
  EXPECT_EQ(log.force_count(), 1u);
}

}  // namespace
}  // namespace untx
