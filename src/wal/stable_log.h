// StableLog: simulated append-only log with an explicit volatile tail.
//
// Used for both the TC's logical transaction log and each DC's
// system-transaction log. Records are opaque byte strings; the record's
// index (0-based, dense) is its position. Durability model:
//
//   [0, stable_end)            on "disk", survives Crash()
//   [stable_end, total_end)    volatile buffer, lost by Crash()
//
// The TC assigns an operation's LSN *before* dispatching it (§5.1), but
// can only complete the record's undo image once the DC replies. The log
// therefore supports Reserve() (claim an index now) + Seal() (provide the
// payload later). Force() advances stable_end through the longest sealed
// prefix — an unsealed record blocks durability of everything after it,
// which is exactly the paper's low-water-mark structure: everything at or
// below the force point has completed.
//
// Concurrency: Reserve/Seal/Append take no log-wide mutex. Records live
// in fixed-size segments that never move, found through a small directory
// that grows on demand. Reserve is an atomic claim of the next index
// (halfway through a segment it also installs the next one, ahead of
// need); Seal stores the payload, then release-stores the record's sealed
// flag, which Force acquire-loads. Only force, crash, clear, truncation,
// segment installs and file I/O serialise on `mu_`. The few changes that
// move or reset records under the appenders' feet (directory growth,
// Crash, Clear) first drain them: each appender is counted in a
// per-thread-striped gate while it touches the log, and the change waits
// for every stripe to empty. A crash or clear starts a new epoch; a
// reservation carries the epoch it was made in, so a late Seal of a
// pre-crash reservation is dropped instead of landing on a reused index.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace untx {

struct StableLogOptions {
  /// Simulated device latency charged to every Force() that makes at
  /// least one record stable (models an fsync). Microseconds.
  uint32_t force_delay_us = 0;
  /// Non-empty: back the stable prefix with this file so it survives the
  /// PROCESS dying (the separate-process deployment's SIGKILL harness),
  /// not just the simulated Crash(). Records append at Force() time —
  /// the volatile tail is never written, so the on-disk prefix IS the
  /// durability contract. An existing file is loaded on construction
  /// (a torn tail entry is discarded); empty = in-memory only.
  std::string path;
};

class StableLog {
 public:
  /// A claimed, not yet sealed log position, tied to the log epoch it
  /// was claimed in (Crash() and Clear() each start a new epoch).
  struct Reservation {
    uint64_t index = 0;
    uint64_t epoch = 0;
  };

  explicit StableLog(StableLogOptions options = {});
  ~StableLog();

  /// Claims the next index with no payload yet. The record is volatile
  /// and unsealed; Force() cannot pass it.
  Reservation Reserve();

  /// Provides the payload for a reserved index and seals it. Returns
  /// false, and stores nothing, if a Crash() or Clear() came between the
  /// reservation and this call: that index is gone or already reused.
  bool Seal(const Reservation& reservation, std::string payload);

  /// Reserve + Seal in one step.
  uint64_t Append(std::string payload);

  /// Makes the longest sealed prefix stable. Returns new stable_end.
  uint64_t Force();

  /// Forces at least through `index` if sealed; returns new stable_end.
  uint64_t ForceTo(uint64_t index);

  /// Blocks until stable_end > index (i.e. record `index` is durable) or
  /// timeout. Used by group commit. Returns false on timeout.
  bool WaitStableThrough(uint64_t index, uint32_t timeout_ms);

  /// Index one past the last stable record.
  uint64_t stable_end() const;
  /// Index one past the last reserved record.
  uint64_t total_end() const;
  /// Longest sealed prefix end (== what Force() would make stable).
  uint64_t sealed_prefix_end() const;

  /// Reads a record. Only stable or sealed-volatile records are readable;
  /// reading an unsealed reservation returns kBusy.
  Status ReadAt(uint64_t index, std::string* out) const;

  /// Drops the volatile tail (sealed or not). This is the component crash.
  void Crash();

  /// Wipes the log back to empty — records, indices, and the backing
  /// file. Unlike Crash(), stable records are discarded too. Used when
  /// the owning component rebuilds itself from scratch (replica reset).
  void Clear();

  /// Logically discards records before `index` (checkpoint truncation).
  /// Indices of surviving records are unchanged.
  void TruncatePrefix(uint64_t index);
  uint64_t truncated_prefix() const;

  // Stats for the logging benches (C9) and log-volume accounting (C4).
  uint64_t bytes_appended() const;
  uint64_t force_count() const;

 private:
  /// 1024 records per segment (40 KB): a lightly used log costs one
  /// small allocation, and the directory holds one pointer per 1024.
  /// Records are not padded to cache lines: padding cost more in memory
  /// traffic than the false sharing it saved.
  static constexpr uint64_t kSegmentRecords = 1024;
  static constexpr size_t kStripes = 16;

  struct Record {
    std::string payload;
    std::atomic<bool> sealed{false};
  };
  struct Segment {
    Record records[kSegmentRecords];
  };
  /// An appender gate stripe: how many appenders of the threads mapped
  /// here are inside the log, plus their byte count.
  struct alignas(64) Stripe {
    std::atomic<uint32_t> active{0};
    std::atomic<uint64_t> bytes{0};
  };
  class AppendScope;

  /// Replays an existing backing file into the segments, base_ and
  /// stable_end_, truncating a torn tail. Called from the constructor only.
  void LoadFile();
  /// Appends records [from, to) (already sealed) to the backing file and
  /// flushes to the kernel. Caller holds mu_.
  void PersistRangeLocked(uint64_t from, uint64_t to);
  /// Appends a truncate-prefix marker. Caller holds mu_.
  void PersistTruncateLocked(uint64_t index);

  /// The record at `index`, or nullptr if its segment is not installed
  /// (or already truncated). Callers hold mu_ or are inside an
  /// AppendScope whose index is at or past stable_end.
  Record* RecordAt(uint64_t index) const;
  bool SealedAt(uint64_t index) const;
  /// Installs segment `k` (allocated by the caller, outside the lock)
  /// unless the epoch ended or it is already there. Called outside any
  /// AppendScope.
  void InstallSegment(uint64_t k, uint64_t epoch,
                      std::unique_ptr<Segment> segment);
  void InstallSegmentLocked(uint64_t k, std::unique_ptr<Segment> segment);
  /// Re-bases the directory at the first live segment with room for `k`
  /// and twice the live span. Caller holds mu_; drains the appenders.
  void GrowDirectoryLocked(uint64_t k);
  /// Blocks new appenders and waits for the ones inside to leave. Caller
  /// holds mu_; UndrainAppenders() reopens the gate.
  void DrainAppenders();
  void UndrainAppenders();

  StableLogOptions options_;
  std::FILE* file_ = nullptr;

  /// Serialises force, crash, clear, truncation, segment installs and
  /// file I/O.
  mutable std::mutex mu_;
  std::condition_variable stable_cv_;

  // Appender gate: `draining_` is set (under mu_) while a change that
  // moves records runs; the stripes count the appenders inside.
  std::atomic<bool> draining_{false};
  Stripe stripes_[kStripes];

  /// Next index to hand out. Bumped by appenders; reset only drained.
  std::atomic<uint64_t> tail_{0};
  /// Changes only drained, so appenders read it without a lock.
  uint64_t epoch_ = 1;
  /// dir_[k] holds segment seg_base_ + k (owned; nullptr = not installed
  /// or truncated). Entries are set and cleared under mu_; the array and
  /// seg_base_ change only drained.
  std::unique_ptr<std::atomic<Segment*>[]> dir_;
  uint64_t dir_size_ = 0;
  uint64_t seg_base_ = 0;

  uint64_t base_ = 0;  // first retained index; guarded by mu_
  std::atomic<uint64_t> stable_end_{0};  // written under mu_
  uint64_t force_count_ = 0;             // guarded by mu_
};

}  // namespace untx
