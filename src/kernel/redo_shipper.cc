#include "kernel/redo_shipper.h"

#include <utility>

#include "dc/data_component.h"
#include "util/thread_name.h"

namespace untx {

namespace {

/// Entries per shipped batch.
constexpr uint32_t kBatchMax = 256;
/// How long a caught-up shipper parks on WaitDurable.
constexpr uint32_t kPollMs = 50;
/// Back-off before re-shipping after an ack that did not cover the batch.
constexpr std::chrono::milliseconds kRetryDelay{10};

}  // namespace

RedoShipper::RedoShipper(DataComponent* primary, uint32_t replica_id,
                         SendFn send)
    : primary_(primary), replica_id_(replica_id), send_(std::move(send)) {}

RedoShipper::~RedoShipper() { Stop(); }

void RedoShipper::Start(uint64_t acked) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  acked_ = acked;
  ship_next_ = acked + 1;
  retry_at_ = {};
  DcRedoLog* log = primary_->redo_log();
  log->set_replication_enabled(true);
  log->RecordReplicaAck(replica_id_, acked);
  thread_ = std::thread([this] { Run(); });
}

void RedoShipper::OnAck(uint64_t acked_rlsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;  // Stop() may already have forgotten us
    if (acked_rlsn + 1 < ship_next_) {
      retry_at_ = std::chrono::steady_clock::now() + kRetryDelay;
    }
    // Stop-and-wait: the one batch in flight is what this ack answers,
    // so the standby's end is always the right resume point.
    acked_ = acked_rlsn;
    ship_next_ = acked_rlsn + 1;
    primary_->redo_log()->RecordReplicaAck(replica_id_, acked_rlsn);
  }
  cv_.notify_all();
}

void RedoShipper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  // Bounded: the loop's untimed waits all end once running_ is false,
  // and WaitDurable's is 50 ms.
  thread_.join();
  // A dropped standby stops holding back the TCs' checkpoint clamp; it
  // re-registers at its true position when it is shipped to again.
  primary_->redo_log()->ForgetReplica(replica_id_);
}

void RedoShipper::Run() {
  SetCurrentThreadName("dc-shipper");
  DcRedoLog* log = primary_->redo_log();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Stop-and-wait: the batch in flight is acked first, and a rejected
    // one waits out its back-off.
    cv_.wait(lock, [this] { return !running_ || acked_ + 1 >= ship_next_; });
    if (retry_at_ > std::chrono::steady_clock::now()) {
      cv_.wait_until(lock, retry_at_, [this] { return !running_; });
    }
    if (!running_) return;
    const uint64_t from = ship_next_;
    lock.unlock();
    ReplicaEntriesMessage msg;
    msg.from_rlsn = log->ReadFrom(from, kBatchMax, &msg.entries);
    if (msg.entries.empty()) {
      // Caught up: park until the primary forces something new.
      log->WaitDurable(from - 1, kPollMs);
      lock.lock();
      continue;
    }
    msg.primary_end = log->end();
    lock.lock();
    ship_next_ = msg.from_rlsn + msg.entries.size();
    lock.unlock();
    send_(msg);
    lock.lock();
  }
}

ReplicaAckMessage ApplyShippedBatch(DataComponent* replica,
                                    uint32_t replica_id,
                                    const ReplicaEntriesMessage& msg) {
  (void)replica->ApplyReplicated(msg);
  ReplicaAckMessage ack;
  ack.replica_id = replica_id;
  ack.acked_rlsn =
      replica->redo_log() != nullptr ? replica->redo_log()->end() : 0;
  return ack;
}

}  // namespace untx
