// RepeatingThread: runs a callback on a fixed interval until stopped.
// The TC uses these for its resend daemon and for pushing EOSL / LWM /
// checkpoint control messages (§4.2.1 says these flow "from time to time").
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "util/thread_name.h"

namespace untx {

class RepeatingThread {
 public:
  /// Does not start; call Start().
  RepeatingThread() = default;
  ~RepeatingThread() { Stop(); }

  RepeatingThread(const RepeatingThread&) = delete;
  RepeatingThread& operator=(const RepeatingThread&) = delete;

  /// Interval is microsecond-granular: sub-millisecond cadences (e.g. a
  /// group-commit window of 200µs) must not silently round up to 1ms.
  /// `name` labels the thread for profilers (15 characters at most).
  void Start(std::chrono::microseconds interval, std::function<void()> fn,
             const char* name = "untx-repeat") {
    Stop();
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = false;
    }
    interval_ = interval;
    fn_ = std::move(fn);
    thread_ = std::thread([this, name] {
      SetCurrentThreadName(name);
      Loop();
    });
  }

  /// Wakes the thread to run the callback now (e.g. force a resend pass).
  void Poke() {
    std::lock_guard<std::mutex> guard(mu_);
    poked_ = true;
    cv_.notify_all();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

  bool running() const { return thread_.joinable(); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, interval_, [this] { return stop_ || poked_; });
      if (stop_) break;
      poked_ = false;
      lock.unlock();
      fn_();
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::chrono::microseconds interval_{10000};
  std::function<void()> fn_;
  bool stop_ = false;
  bool poked_ = false;
};

}  // namespace untx
