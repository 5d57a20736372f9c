#include "kernel/replication_link.h"

#include <chrono>
#include <vector>

#include "dc/data_component.h"
#include "dc/dc_redo_log.h"
#include "util/thread_name.h"

namespace untx {

ReplicationLink::ReplicationLink(DataComponent* primary,
                                 DataComponent* replica,
                                 ReplicationLinkOptions options)
    : primary_(primary), replica_(replica), options_(options) {}

ReplicationLink::~ReplicationLink() { Stop(); }

void ReplicationLink::Start() {
  if (!stop_.exchange(false)) return;  // already running
  DcRedoLog* plog = primary_->redo_log();
  plog->set_replication_enabled(true);
  plog->RecordReplicaAck(options_.replica_id, replica_->redo_log()->end());
  thread_ = std::thread([this] { Run(); });
}

void ReplicationLink::Stop() {
  if (stop_.exchange(true)) return;
  if (thread_.joinable()) thread_.join();
  primary_->redo_log()->ForgetReplica(options_.replica_id);
}

void ReplicationLink::Run() {
  SetCurrentThreadName("repl-link");
  DcRedoLog* plog = primary_->redo_log();
  while (!stop_.load()) {
    const uint64_t from = replica_->redo_log()->end() + 1;
    std::vector<RedoEntry> entries;
    const uint64_t first =
        plog->ReadFrom(from, options_.batch_max, &entries);
    if (first == 0 || entries.empty()) {
      // Caught up: park until the primary forces something new (bounded
      // so Stop() is noticed).
      plog->WaitDurable(from - 1, options_.poll_ms);
      continue;
    }
    ReplicaEntriesMessage msg;
    msg.from_rlsn = first;
    msg.primary_end = plog->end();
    msg.entries = std::move(entries);
    Status s = replica_->ApplyReplicated(msg);
    if (!s.ok()) {
      // Transient (replica busy / mid-recovery): retry from its current
      // end after a beat. A real gap self-heals the same way because
      // `from` is re-derived from the replica each iteration.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_ms));
      continue;
    }
    batches_shipped_.fetch_add(1);
    plog->RecordReplicaAck(options_.replica_id,
                           replica_->redo_log()->end());
  }
}

}  // namespace untx
