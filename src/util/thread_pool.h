// Fixed-size worker pool. Used by benches and by DC server loops.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace untx {

class ThreadPool {
 public:
  /// `name` labels the workers for profilers (15 characters at most).
  explicit ThreadPool(int num_threads, const char* name = "untx-pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void Drain();

  /// Stops accepting tasks, runs the backlog, joins workers.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace untx
