#include "wal/stable_log.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

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
  const uint64_t r = log.Reserve();
  log.Append("after-hole");  // sealed, but behind the reservation
  EXPECT_EQ(log.Force(), 0u) << "force must not pass an unsealed record";
  log.Seal(r, "hole-filled");
  EXPECT_EQ(log.Force(), 2u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(r, &out).ok());
  EXPECT_EQ(out, "hole-filled");
}

TEST(StableLogTest, SealedPrefixEndTracksHoles) {
  StableLog log;
  log.Append("a");
  const uint64_t hole = log.Reserve();
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
  const uint64_t r = log.Reserve();
  std::string out;
  EXPECT_TRUE(log.ReadAt(r, &out).IsBusy());
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
