// ChannelTransport: the "cloud" binding of the TC:DC interface — a pair
// of simulated message channels carrying the shared wire protocol
// (kernel/dc_wire.h) between one TC and one DC: the TC-side wire client,
// DC server threads serving requests through ServeDcMessage, and a reply
// dispatcher. Message loss, duplication and reordering on either channel
// exercise the §4.2 interaction contracts end to end.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "dc/data_component.h"
#include "kernel/dc_wire.h"
#include "net/sim_channel.h"

namespace untx {

struct ChannelTransportOptions {
  ChannelOptions request_channel;
  ChannelOptions reply_channel;
  int server_threads = 2;
  /// Client-side kOperationBatch coalescing (shared with sockets).
  CoalesceOptions coalesce;
};

/// Owns the channels and threads binding one TC to one DC; it IS the
/// TC's client of that DC (a WireDcClient whose carrier is the request
/// channel), so the per-binding wire counters are its own.
class ChannelTransport : public WireDcClient {
 public:
  ChannelTransport(DataComponent* dc, ChannelTransportOptions options);
  ~ChannelTransport() override;

  void Start();
  void Stop();

  /// Drops all in-flight requests (the DC crashed; its inbox dies with
  /// it). Replies already on the wire still arrive.
  void OnDcCrash() { request_ch_.Clear(); }

  /// Points the server side at a different DC — hot-standby failover:
  /// the binding (channels, threads, stats) survives, the backend swaps.
  void Retarget(DataComponent* dc) { dc_.store(dc); }

  const SimChannel& request_channel() const { return request_ch_; }
  const SimChannel& reply_channel() const { return reply_ch_; }

  /// High-water mark of scan-chunk bytes resident in the reply channel —
  /// the memory a scan can pin there. Credited streams bound this by
  /// credit_chunks × chunk size no matter how large the scan; eager
  /// streams let it grow with the whole result. (A dropped chunk reply
  /// is never decremented, so the mark is conservative on lossy
  /// channels.)
  uint64_t max_queued_scan_bytes() const {
    return max_queued_scan_bytes_.load();
  }

  /// The client's counters plus this channel's scan-reply residency.
  void AddWireStats(WireTotals* totals) const;

  const ChannelTransportOptions& options() const { return options_; }

 private:
  void ServerLoop();
  void DispatchLoop();
  /// Sends one reply on the reply channel, accounting scan-chunk bytes.
  void Reply(MessageKind kind, const std::string& body);

  /// Atomic: server threads read it per message; Retarget (failover)
  /// swaps it while they run.
  std::atomic<DataComponent*> dc_;
  ChannelTransportOptions options_;
  SimChannel request_ch_;
  SimChannel reply_ch_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> servers_;
  std::thread dispatcher_;
  std::atomic<uint64_t> queued_scan_bytes_{0};
  std::atomic<uint64_t> max_queued_scan_bytes_{0};
};

}  // namespace untx
