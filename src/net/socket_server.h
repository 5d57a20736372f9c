// SocketServer: the DC side of the real-network deployment — one TCP
// listener per DataComponent multiplexing EVERY TC session onto one
// shared worker pool (vs the per-binding server threads of the channel
// transport). A reactor thread owns accept/read/write readiness; decoded
// request frames are handed to the pool, and replies are routed back to
// the session they arrived on.
//
// TC requests are served by ServeDcMessage (kernel/dc_wire.h), the same
// function behind the channel server threads: a reply from a crashed DC
// is suppressed (the TC's resend machinery will retry after RecoverDc). When a session closes — TC crash, network drop, or clean
// shutdown — the server evicts the DC-side scan cursors of the TCs that
// session served (no other live session still serving them), exactly as
// a TC reset would; the reply cache is kept for resend idempotence.
//
// A session that sends kReplicaSubscribe is a standby, not a TC: it gets
// a RedoShipper (kernel/redo_shipper.h) whose carrier writes
// kReplicaEntries frames to it and whose acks are its kReplicaAck frames.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dc/data_component.h"
#include "util/thread_pool.h"

namespace untx {

namespace internal {
struct ServerImpl;
}  // namespace internal

struct SocketServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; read it back via port().
  uint16_t port = 0;
  /// The shared pool all TC sessions multiplex onto.
  int workers = 2;
};

class SocketServer {
 public:
  SocketServer(DataComponent* dc, SocketServerOptions options);
  ~SocketServer();

  /// Binds + listens + starts the reactor and worker pool.
  Status Start();
  void Stop();

  /// Swaps the backend DC — hot-standby failover: the listener, sessions
  /// and worker pool survive; requests dispatch into the promoted DC.
  /// Atomic; each frame is served by one consistent backend.
  void Retarget(DataComponent* dc);

  /// The bound port (the chosen one when options.port was 0). Valid
  /// after a successful Start().
  uint16_t port() const;

  /// Live TC sessions (for tests: drops should shrink this).
  size_t session_count() const;
  /// Live sessions that subscribed as redo-shipping replicas.
  size_t replica_session_count() const;
  /// Sessions accepted over the server's lifetime.
  uint64_t sessions_accepted() const;
  /// Frames that failed to decode (corrupt stream → session closed).
  uint64_t corrupt_frames() const;
  /// High-water mark of reply bytes buffered toward one session — the
  /// socket analog of the reply channel's queued-scan residency that the
  /// credit window bounds.
  uint64_t max_queued_reply_bytes() const;

 private:
  std::unique_ptr<internal::ServerImpl> impl_;
};

}  // namespace untx
