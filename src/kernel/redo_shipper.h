// RedoShipper: the one redo-log shipper from a primary DC to one hot
// standby. A carrier supplies only `send`, which delivers a batch toward
// the standby, and feeds the standby's ack back through OnAck:
//   * in-process (Cluster): `send` runs ApplyShippedBatch on the standby
//     and hands the ack straight to OnAck;
//   * socket (SocketServer replica session): `send` writes a
//     kReplicaEntries frame, each kReplicaAck frame calls OnAck, and the
//     standby's ReplicaClient runs ApplyShippedBatch.
//
// Stop-and-wait: one batch of DURABLE entries (DcRedoLog::ReadFrom stops
// at durable_end, so a primary crash never leaves a standby ahead of
// what the primary can recover) is in flight at a time, and every ack
// is the resume point. An ack that does not cover the batch (standby
// busy, crashed or gapped) rewinds, and the batch re-ships from there
// after a short back-off; ApplyReplicated skips re-shipped overlap.
//
// A shipper stays bound to the DC that served the subscribe. No
// deployment ships over a socket across a SocketServer::Retarget:
// Cluster standbys use the in-process carrier (FailoverDc rebuilds their
// shippers against the promoted DC), and a promoted untx_dcd starts a
// fresh server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "dc/dc_redo_log.h"

namespace untx {

class DataComponent;

class RedoShipper {
 public:
  /// Delivers one batch toward the standby. The ack may reach OnAck
  /// before `send` returns (the in-process carrier applies in place).
  using SendFn = std::function<void(const ReplicaEntriesMessage&)>;

  RedoShipper(DataComponent* primary, uint32_t replica_id, SendFn send);
  ~RedoShipper();
  RedoShipper(const RedoShipper&) = delete;
  RedoShipper& operator=(const RedoShipper&) = delete;

  /// Registers the standby in the primary's ack map at `acked` (its own
  /// log end, so checkpoint clamping sees the laggard at once) and
  /// starts the shipping thread. Idempotent while running.
  void Start(uint64_t acked);

  /// The standby's log ends at `acked_rlsn`: records the ack and opens
  /// the window. Ignored once stopped.
  void OnAck(uint64_t acked_rlsn);

  /// Joins the shipping thread and removes the standby from the
  /// primary's ack map. Idempotent; called by the destructor.
  void Stop();

 private:
  void Run();

  DataComponent* const primary_;
  const uint32_t replica_id_;
  const SendFn send_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  /// The standby's latest ack. A batch is in flight while
  /// acked_ + 1 < ship_next_, the first rlsn not yet shipped.
  uint64_t acked_ = 0;
  uint64_t ship_next_ = 1;
  /// Set by an ack that did not cover the batch in flight.
  std::chrono::steady_clock::time_point retry_at_{};
  std::thread thread_;
};

/// The standby side of every carrier: applies one shipped batch and
/// acks the standby's true log end, whether the apply succeeded or not
/// (on failure the shipper rewinds to that end and re-ships).
ReplicaAckMessage ApplyShippedBatch(DataComponent* replica,
                                    uint32_t replica_id,
                                    const ReplicaEntriesMessage& msg);

}  // namespace untx
