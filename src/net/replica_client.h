// ReplicaClient: the standby end of the socket carrier for redo
// shipping (kernel/redo_shipper.h). A replica untx_dcd dials its
// primary's SocketServer, subscribes from its own redo end + 1
// (kReplicaSubscribe), and answers each kReplicaEntries batch with the
// kReplicaAck that ApplyShippedBatch returns. Disconnects self-heal:
// reconnect with jittered exponential backoff and re-subscribe from
// wherever the replica's log actually ends, so a batch lost on the wire
// is simply re-shipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "dc/data_component.h"

namespace untx {

struct ReplicaClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Identity at the primary's ack table; unique per standby.
  uint32_t replica_id = 1;
};

/// Owns the dial/subscribe/apply/ack thread binding one replica DC to
/// its primary's socket server.
class ReplicaClient {
 public:
  ReplicaClient(DataComponent* dc, ReplicaClientOptions options);
  ~ReplicaClient();

  /// Starts the subscriber thread (idempotent).
  void Start();
  /// Stops and joins it; safe to call repeatedly. The subscription at
  /// the primary dies with the TCP session (ForgetReplica there).
  void Stop();

 private:
  void Run();

  DataComponent* dc_;
  ReplicaClientOptions options_;
  std::atomic<bool> stop_{true};
  std::thread thread_;
};

}  // namespace untx
