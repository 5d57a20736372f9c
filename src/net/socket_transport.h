// SocketTransport: the real-network binding of the TC:DC interface —
// one TCP connection per (TC, DC) binding, frames from net/frame.h
// (byte-identical to the simulated channels), nonblocking I/O driven by
// ONE reactor thread shared by every binding of the factory.
//
// Failure model: TCP delivers or the connection dies. A dead connection
// silently drops sends (counted), and the reactor redials with
// exponential backoff — the TC's existing resend-until-ack machinery is
// what re-issues the lost traffic once the dial succeeds, exactly the
// §4.2 contract. Each successful (re)connect bumps the binding's
// connect epoch so a deployment driver (untx_tcd) can treat a bumped
// epoch as "the DC may have restarted" and run the redo-resend
// protocol; redundant redo is idempotent via abLSNs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/cluster.h"
#include "kernel/dc_wire.h"

namespace untx {

struct SocketEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct SocketTransportOptions {
  /// How long Start() blocks for the initial dial before handing the
  /// connection to the background redial loop.
  uint32_t connect_timeout_ms = 2000;
  /// Redial backoff: doubles from min to the (configurable) max cap on
  /// consecutive failures, resets on success.
  uint32_t reconnect_backoff_min_ms = 20;
  uint32_t reconnect_backoff_max_ms = 1000;
  /// Random spread added on top of each backoff delay, as a fraction of
  /// it (0.25 → up to +25%). Keeps a fleet of TCs redialing a restarted
  /// DC from arriving in lockstep. 0 disables.
  double reconnect_backoff_jitter = 0.25;
  /// Client-side kOperationBatch coalescing (shared with channels).
  CoalesceOptions coalesce;
};

namespace internal {
class SocketReactor;
class SocketConnection;
}  // namespace internal

/// One (TC, DC) socket binding: a connection on the factory's shared
/// reactor carrying the shared wire client (kernel/dc_wire.h). Replies
/// dispatch on the reactor thread.
class SocketBoundTransport : public BoundTransport {
 public:
  SocketBoundTransport(std::shared_ptr<internal::SocketReactor> reactor,
                       std::shared_ptr<internal::SocketConnection> conn,
                       const SocketTransportOptions& options);
  ~SocketBoundTransport() override;

  DcClient* client() override;
  void AddWireStats(WireTotals* totals) const override;
  void Start() override;
  void Stop() override;
  /// TCP has no inbox to clear: in-flight requests either reach the
  /// (crashed) DC, whose replies are suppressed, or die with the
  /// connection. Nothing to do.
  void OnDcCrash() override {}

  bool connected() const;
  /// Number of successful dials; bumps on every reconnect. A driver
  /// that observes an epoch bump after traffic was flowing should treat
  /// the DC as possibly restarted and run OnDcRestart.
  uint64_t connect_epoch() const;
  /// Blocks until connected or timeout; false on timeout.
  bool WaitConnected(uint32_t timeout_ms) const;

 private:
  std::shared_ptr<internal::SocketReactor> reactor_;
  std::shared_ptr<internal::SocketConnection> conn_;
  WireDcClient client_;
  uint32_t connect_timeout_ms_;
};

/// Produces socket bindings to a fixed DC endpoint map. All bindings of
/// one factory share its reactor thread. A DC may list ALTERNATE
/// endpoints (primary first, standbys after): a failed dial rotates to
/// the next alternate, so after a hot-standby promotion the redial loop
/// lands on the new primary by itself.
class SocketTransportFactory : public TransportFactory {
 public:
  SocketTransportFactory(std::map<DcId, std::vector<SocketEndpoint>> targets,
                         SocketTransportOptions options);
  ~SocketTransportFactory() override;

  /// `target` (the in-process DataComponent) is ignored — the data
  /// lives behind the endpoint; nullptr is fine for remote DCs.
  std::unique_ptr<BoundTransport> Bind(TcId tc, DcId dc,
                                       DataComponent* target) override;

 private:
  std::map<DcId, std::vector<SocketEndpoint>> targets_;
  SocketTransportOptions options_;
  std::shared_ptr<internal::SocketReactor> reactor_;
};

std::shared_ptr<TransportFactory> MakeSocketTransportFactory(
    std::map<DcId, SocketEndpoint> targets,
    SocketTransportOptions options = {});

/// Alternate-aware variant: each DC's vector is tried in rotation.
std::shared_ptr<TransportFactory> MakeSocketTransportFactory(
    std::map<DcId, std::vector<SocketEndpoint>> targets,
    SocketTransportOptions options = {});

}  // namespace untx
