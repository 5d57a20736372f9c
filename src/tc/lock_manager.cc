#include "tc/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/coding.h"

namespace untx {

std::string RecordLockName(TableId table, const std::string& key) {
  std::string name;
  name.push_back('K');
  PutFixed32(&name, table);
  name += key;
  return name;
}

std::string RangeLockName(TableId table, uint32_t range_idx) {
  std::string name;
  name.push_back('R');
  PutFixed32(&name, table);
  PutFixed32(&name, range_idx);
  return name;
}

std::string TableEofLockName(TableId table) {
  std::string name;
  name.push_back('E');
  PutFixed32(&name, table);
  return name;
}

LockManager::LockManager(LockManagerOptions options) : options_(options) {}

bool LockManager::CompatibleLocked(const LockEntry& entry, TxnId txn,
                                   LockMode mode) {
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::GrantLocked(LockShard* shard, LockEntry* entry, TxnId txn,
                              LockMode mode) {
  for (auto& [holder, held_mode] : entry->holders) {
    if (holder == txn) {
      if (mode == LockMode::kExclusive &&
          held_mode == LockMode::kShared) {
        held_mode = LockMode::kExclusive;
        ++shard->stats.upgrades;
      }
      return;
    }
  }
  entry->holders.emplace_back(txn, mode);
}

std::vector<TxnId> LockManager::BlockersLocked(const LockEntry& entry,
                                               TxnId txn, LockMode mode) {
  std::vector<TxnId> blockers;
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn) continue;
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      blockers.push_back(holder);
    }
  }
  return blockers;
}

void LockManager::NoteHeld(TxnId txn, const std::string& name) {
  HeldShard& held = HeldOf(txn);
  std::lock_guard<std::mutex> guard(held.mu);
  held.held[txn].insert(name);
}

Status LockManager::Lock(TxnId txn, const std::string& name, LockMode mode) {
  LockShard& shard = ShardOf(name);
  std::unique_lock<std::mutex> lock(shard.mu);
  LockEntry& entry = shard.table[name];

  // Already held strongly enough?
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn &&
        (held_mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::OK();
    }
  }

  // Fast path: compatible and nobody queued ahead (except when upgrading,
  // which may barge — the holder would otherwise deadlock behind itself).
  const bool holds_already =
      std::any_of(entry.holders.begin(), entry.holders.end(),
                  [txn](const auto& h) { return h.first == txn; });
  if (CompatibleLocked(entry, txn, mode) &&
      (entry.waiters.empty() || holds_already)) {
    GrantLocked(&shard, &entry, txn, mode);
    NoteHeld(txn, name);
    ++shard.stats.acquisitions;
    return Status::OK();
  }

  // Must wait. `entry` stays valid while our waiter is queued on it: an
  // entry is erased only when it has no holders and no waiters, and
  // Reset() marks every waiter crashed before it clears the table.
  ++shard.stats.waits;
  Waiter waiter{txn, mode};
  entry.waiters.push_back(&waiter);

  // Leaves the queue without the lock; a waiter behind us may now fit.
  auto abandon = [&] {
    entry.waiters.erase(
        std::find(entry.waiters.begin(), entry.waiters.end(), &waiter));
    wait_graph_.RemoveWaiter(txn);
    WakeWaitersLocked(&shard, &entry);
    if (entry.holders.empty() && entry.waiters.empty()) shard.table.erase(name);
  };
  // Refreshes txn's wait-for edges; true if its wait would close a cycle.
  auto closes_cycle = [&] {
    if (!options_.deadlock_detection) return false;
    wait_graph_.RemoveWaiter(txn);
    wait_graph_.AddEdges(txn, BlockersLocked(entry, txn, mode));
    if (wait_graph_.FindCycleFrom(txn).empty()) return false;
    ++shard.stats.deadlocks;
    abandon();
    return true;
  };

  if (closes_cycle()) return Status::Deadlock("lock wait would close a cycle");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.wait_timeout_ms);
  for (;;) {
    const bool timed_out =
        shard.cv.wait_until(lock, deadline) == std::cv_status::timeout;
    if (waiter.crashed) return Status::Crashed("lock manager reset");
    if (waiter.granted) {
      // WakeWaitersLocked granted us and added us to holders.
      wait_graph_.RemoveWaiter(txn);
      NoteHeld(txn, name);
      ++shard.stats.acquisitions;
      return Status::OK();
    }
    if (timed_out) {
      ++shard.stats.timeouts;
      abandon();
      return Status::TimedOut("lock wait timed out");
    }
    // Blockers may have changed; re-check for a cycle.
    if (closes_cycle()) {
      return Status::Deadlock("lock wait would close a cycle");
    }
  }
}

Status LockManager::LockInstant(TxnId txn, const std::string& name,
                                LockMode mode) {
  // We cannot tell "newly acquired" from "reacquired", so the lock is
  // kept; instant semantics only matter for the conflict check in Lock().
  return Lock(txn, name, mode);
}

void LockManager::WakeWaitersLocked(LockShard* shard, LockEntry* entry) {
  // Grant from the front of the queue while compatible (FIFO fairness).
  bool granted_any = false;
  while (!entry->waiters.empty()) {
    Waiter* w = entry->waiters.front();
    if (!CompatibleLocked(*entry, w->txn, w->mode)) break;
    GrantLocked(shard, entry, w->txn, w->mode);
    w->granted = true;
    entry->waiters.pop_front();
    granted_any = true;
    if (w->mode == LockMode::kExclusive) break;
  }
  if (granted_any) shard->cv.notify_all();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::unordered_set<std::string> names;
  {
    HeldShard& held = HeldOf(txn);
    std::lock_guard<std::mutex> guard(held.mu);
    auto it = held.held.find(txn);
    if (it != held.held.end()) {
      names = std::move(it->second);
      held.held.erase(it);
    }
  }
  for (const std::string& name : names) {
    LockShard& shard = ShardOf(name);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto table_it = shard.table.find(name);
    if (table_it == shard.table.end()) continue;
    LockEntry& entry = table_it->second;
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [txn](const auto& h) { return h.first == txn; }),
        entry.holders.end());
    if (entry.holders.empty() && entry.waiters.empty()) {
      shard.table.erase(table_it);
    } else {
      WakeWaitersLocked(&shard, &entry);
    }
  }
  // Every edge naming txn was added under a shard lock taken above, so an
  // empty graph here means there is nothing of txn's to drop.
  if (!wait_graph_.Empty()) wait_graph_.RemoveTxn(txn);
}

void LockManager::Reset() {
  for (LockShard& shard : lock_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (auto& [name, entry] : shard.table) {
      for (Waiter* w : entry.waiters) w->crashed = true;
    }
    shard.table.clear();
    shard.stats = LockManagerStats{};
    shard.cv.notify_all();
  }
  for (HeldShard& held : held_shards_) {
    std::lock_guard<std::mutex> guard(held.mu);
    held.held.clear();
  }
  wait_graph_.Clear();
}

size_t LockManager::HeldCount(TxnId txn) const {
  const HeldShard& held = HeldOf(txn);
  std::lock_guard<std::mutex> guard(held.mu);
  auto it = held.held.find(txn);
  return it == held.held.end() ? 0 : it->second.size();
}

LockManagerStats LockManager::stats() const {
  LockManagerStats total;
  for (const LockShard& shard : lock_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    total.acquisitions += shard.stats.acquisitions;
    total.waits += shard.stats.waits;
    total.deadlocks += shard.stats.deadlocks;
    total.timeouts += shard.stats.timeouts;
    total.upgrades += shard.stats.upgrades;
  }
  return total;
}

}  // namespace untx
