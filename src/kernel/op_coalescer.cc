#include "kernel/op_coalescer.h"

#include <algorithm>

#include "util/thread_name.h"

namespace untx {

OpCoalescer::OpCoalescer(CoalesceOptions options, FlushFn flush)
    : options_(options), flush_(std::move(flush)) {}

OpCoalescer::~OpCoalescer() { Stop(); }

void OpCoalescer::Start() {
  stop_.store(false);
  flusher_ = std::thread([this] { FlushLoop(); });
}

void OpCoalescer::Stop() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    flush_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
}

void OpCoalescer::Queue(const OperationRequest& req) {
  std::vector<OperationRequest> full;
  bool first = false;
  {
    std::lock_guard<std::mutex> guard(pending_mu_);
    pending_.push_back(req);
    const auto now = std::chrono::steady_clock::now();
    last_enqueue_ = now;
    first = pending_.size() == 1;
    if (first) oldest_enqueue_ = now;
    if (pending_.size() >= options_.max_batch_ops) {
      full.swap(pending_);
    }
  }
  if (!full.empty()) {
    flush_(full);
    return;
  }
  if (first) {
    // Arm the flusher for a queue that just became non-empty.
    std::lock_guard<std::mutex> guard(flush_mu_);
    flush_cv_.notify_one();
  }
}

void OpCoalescer::Flush() {
  std::vector<OperationRequest> batch;
  {
    std::lock_guard<std::mutex> guard(pending_mu_);
    if (pending_.empty()) return;
    batch.swap(pending_);
  }
  flush_(batch);
}

bool OpCoalescer::HasPending() const {
  std::lock_guard<std::mutex> guard(pending_mu_);
  return !pending_.empty();
}

bool OpCoalescer::PendingAges(
    std::chrono::steady_clock::time_point* oldest,
    std::chrono::steady_clock::time_point* newest) const {
  std::lock_guard<std::mutex> guard(pending_mu_);
  if (pending_.empty()) return false;
  *oldest = oldest_enqueue_;
  *newest = last_enqueue_;
  return true;
}

void OpCoalescer::FlushLoop() {
  SetCurrentThreadName("coalescer");
  // Safety net for queued ops whose caller never awaits: bounds the time
  // an op can sit in the coalescing buffer. Sleeps until a queue becomes
  // non-empty, then waits out the flush conditions — zero wakeups idle.
  using Clock = std::chrono::steady_clock;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_.load() || HasPending(); });
    }
    if (stop_.load()) return;
    if (!HasPending()) continue;
    // Flush on submitter quiescence (no enqueue for idle_us) or when the
    // oldest op hits the latency target.
    const auto idle = std::chrono::microseconds(options_.idle_us);
    const auto max_delay = std::chrono::microseconds(options_.max_delay_us);
    for (;;) {
      if (stop_.load()) return;
      Clock::time_point oldest, newest;
      if (!PendingAges(&oldest, &newest)) break;  // drained
      const auto now = Clock::now();
      if (now - oldest >= max_delay) {
        deadline_flushes_.fetch_add(1);
        Flush();
        break;
      }
      if (now - newest >= idle) {
        idle_flushes_.fetch_add(1);
        Flush();
        break;
      }
      const auto until_deadline = (oldest + max_delay) - now;
      const auto until_idle = (newest + idle) - now;
      std::this_thread::sleep_for(std::min(until_deadline, until_idle));
    }
  }
}

}  // namespace untx
