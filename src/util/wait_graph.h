// Wait-for graph for deadlock detection in the TC lock manager (§3.1).
// Nodes are transactions; an edge A -> B means A waits for a lock B holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace untx {

/// Thread-safe wait-for graph with cycle detection. The lock manager adds
/// edges when a request blocks and removes them when it unblocks; before
/// sleeping, the requester runs FindCycleFrom to decide whether to abort.
class WaitForGraph {
 public:
  /// Adds edges waiter -> each holder.
  void AddEdges(TxnId waiter, const std::vector<TxnId>& holders);

  /// Removes every outgoing edge of waiter.
  void RemoveWaiter(TxnId waiter);

  /// Removes a transaction entirely (it committed/aborted): drops its
  /// outgoing edges and any incoming edges pointing at it.
  void RemoveTxn(TxnId txn);

  /// If `start` is on a cycle, returns the cycle's members (including
  /// start). Empty vector = no deadlock.
  std::vector<TxnId> FindCycleFrom(TxnId start) const;

  /// Drops every edge (the lock manager was reset).
  void Clear();

  /// True when no transaction is registered as waiting. Lock-free, so a
  /// commit that never waited can skip RemoveTxn's graph walk; the caller
  /// must order the check after every edge that could name its txn.
  bool Empty() const { return waiters_.load() == 0; }

  /// Number of outgoing edges currently registered (for tests).
  size_t EdgeCount() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<TxnId, std::unordered_set<TxnId>> out_;
  std::atomic<size_t> waiters_{0};  // out_.size(), published under mu_
};

}  // namespace untx
