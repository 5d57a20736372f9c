#include "util/wait_graph.h"

#include <algorithm>

namespace untx {

void WaitForGraph::AddEdges(TxnId waiter, const std::vector<TxnId>& holders) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& set = out_[waiter];
  for (TxnId h : holders) {
    if (h != waiter) set.insert(h);
  }
  waiters_.store(out_.size());
}

void WaitForGraph::RemoveWaiter(TxnId waiter) {
  std::lock_guard<std::mutex> guard(mu_);
  out_.erase(waiter);
  waiters_.store(out_.size());
}

void WaitForGraph::RemoveTxn(TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  out_.erase(txn);
  for (auto& [waiter, holders] : out_) {
    holders.erase(txn);
  }
  waiters_.store(out_.size());
}

void WaitForGraph::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  out_.clear();
  waiters_.store(0);
}

std::vector<TxnId> WaitForGraph::FindCycleFrom(TxnId start) const {
  std::lock_guard<std::mutex> guard(mu_);
  // Iterative DFS from start; a path back to start is a deadlock cycle.
  std::vector<TxnId> path;
  std::unordered_set<TxnId> visited;

  struct Frame {
    TxnId node;
    std::vector<TxnId> next;
    size_t idx = 0;
  };
  std::vector<Frame> stack;

  auto neighbors = [this](TxnId n) {
    std::vector<TxnId> result;
    auto it = out_.find(n);
    if (it != out_.end()) {
      result.assign(it->second.begin(), it->second.end());
    }
    return result;
  };

  stack.push_back({start, neighbors(start), 0});
  visited.insert(start);
  path.push_back(start);

  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.idx >= top.next.size()) {
      stack.pop_back();
      path.pop_back();
      continue;
    }
    TxnId next = top.next[top.idx++];
    if (next == start) {
      return path;  // cycle found; path holds its members
    }
    if (visited.insert(next).second) {
      path.push_back(next);
      stack.push_back({next, neighbors(next), 0});
    }
  }
  return {};
}

size_t WaitForGraph::EdgeCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [waiter, holders] : out_) n += holders.size();
  return n;
}

}  // namespace untx
