// TC lock manager (§3.1, §4.1.1(1)).
//
// "Transactional locking to ensure that transactions are properly
// isolated (serializable) and that there are no concurrent conflicting
// operation requests submitted to the DC. The locks cannot exploit
// knowledge of data pagination."
//
// Lockables are opaque byte strings (record ids, range-partition ids, a
// per-table EOF sentinel) — never pages. Strict two-phase locking:
// everything is released together at commit/abort. Deadlocks are detected
// on a wait-for graph with the requester aborted when it closes a cycle,
// plus a timeout backstop.
//
// Concurrency: the table is striped by lock-name hash, each shard with its
// own mutex and condition variable, and the per-txn held sets are striped
// by TxnId, so transactions touching different names never share a mutex.
// Lock order: lock-name shard -> held shard. The wait-for graph is global
// but is touched only by waiters (and by ReleaseAll while anyone waits).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "util/wait_graph.h"

namespace untx {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

struct LockManagerOptions {
  uint32_t wait_timeout_ms = 5000;
  bool deadlock_detection = true;
};

struct LockManagerStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t upgrades = 0;
};

// Lock-name constructors. The encoding keeps record and range names in
// disjoint spaces.
std::string RecordLockName(TableId table, const std::string& key);
std::string RangeLockName(TableId table, uint32_t range_idx);
std::string TableEofLockName(TableId table);

class LockManager {
 public:
  explicit LockManager(LockManagerOptions options = {});

  /// Acquires (or upgrades to) `mode` on `name` for `txn`. Blocks until
  /// granted, deadlock (kDeadlock) or timeout (kTimedOut). Re-entrant:
  /// holding X satisfies an S request.
  Status Lock(TxnId txn, const std::string& name, LockMode mode);

  /// Instant-duration lock for next-key probes during inserts under the
  /// fetch-ahead protocol. The conflict check is all that matters, so the
  /// lock is conservatively kept (it may have been held already, and
  /// releasing it would then break 2PL).
  Status LockInstant(TxnId txn, const std::string& name, LockMode mode);

  /// Releases every lock held by txn (strict 2PL release point). Wakes
  /// only the shards where a waiter was granted.
  void ReleaseAll(TxnId txn);

  /// Crash: drops every lock, and every current waiter returns Crashed.
  /// In place, so threads blocked inside Lock() never touch freed state.
  void Reset();

  /// Number of locks currently held by txn (tests).
  size_t HeldCount(TxnId txn) const;

  /// Summed over every shard.
  LockManagerStats stats() const;

  /// The lock-table shard `name` lives in (tests).
  static size_t ShardIndex(const std::string& name) {
    return std::hash<std::string>()(name) % kLockShards;
  }

 private:
  static constexpr size_t kLockShards = 64;
  static constexpr size_t kHeldShards = 16;

  struct Waiter {
    TxnId txn;
    LockMode mode;
    bool granted = false;
    bool crashed = false;  // Reset() ran while waiting
  };
  struct LockEntry {
    // (txn, mode); a txn appears at most once, with its strongest mode.
    std::vector<std::pair<TxnId, LockMode>> holders;
    std::deque<Waiter*> waiters;
  };
  struct alignas(64) LockShard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, LockEntry> table;
    LockManagerStats stats;
  };
  struct alignas(64) HeldShard {
    mutable std::mutex mu;
    std::unordered_map<TxnId, std::unordered_set<std::string>> held;
  };

  LockShard& ShardOf(const std::string& name) {
    return lock_shards_[ShardIndex(name)];
  }
  HeldShard& HeldOf(TxnId txn) { return held_shards_[txn % kHeldShards]; }
  const HeldShard& HeldOf(TxnId txn) const {
    return held_shards_[txn % kHeldShards];
  }

  /// Records `name` in txn's held set. Caller holds name's lock shard.
  void NoteHeld(TxnId txn, const std::string& name);

  static bool CompatibleLocked(const LockEntry& entry, TxnId txn,
                               LockMode mode);
  static void GrantLocked(LockShard* shard, LockEntry* entry, TxnId txn,
                          LockMode mode);
  static void WakeWaitersLocked(LockShard* shard, LockEntry* entry);
  static std::vector<TxnId> BlockersLocked(const LockEntry& entry, TxnId txn,
                                           LockMode mode);

  LockManagerOptions options_;
  std::array<LockShard, kLockShards> lock_shards_;
  std::array<HeldShard, kHeldShards> held_shards_;
  WaitForGraph wait_graph_;
};

}  // namespace untx
