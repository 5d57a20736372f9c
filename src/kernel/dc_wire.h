// The two endpoints of the TC:DC wire protocol, written once for every
// carrier. §4.2 defines the interaction contracts on messages, not on a
// transport: the simulated channels (ChannelTransport) and TCP (the
// SocketServer / socket bindings) differ only in how a frame travels.
//
//   * ServeDcMessage — the DC side: decode one TC request, run it
//     against a DcService, suppress what a crashed DC never sends, and
//     encode the replies.
//   * WireDcClient   — the TC side: encode requests (coalescing queued
//     ops into kOperationBatch messages), count the wire cost, and
//     decode replies into the DcClient handlers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dc/dc_api.h"
#include "kernel/op_coalescer.h"
#include "tc/dc_client.h"

namespace untx {

/// Where an endpoint puts the encoded messages it produces: the carrier
/// behind a WireDcClient's requests, or the reply path of one request
/// ServeDcMessage serves (nothing for a crashed DC, one reply for an op,
/// batch or control request, a sequence of chunks for a scan stream or
/// credit).
using MessageSink =
    std::function<void(MessageKind kind, const std::string& body)>;

/// Serves one TC request message (kOperationRequest, kOperationBatch,
/// kScanStreamRequest, kScanCredit or kControlRequest) against `dc`.
/// `note_tc`, if set, learns the request's TC id before the DC runs it.
/// Replies a crashed DC produced are dropped — and so is a batch reply
/// left empty by those drops; the TC's resend machinery retries. Returns
/// false, sending nothing, when `kind` is not a TC request kind or the
/// body does not decode.
bool ServeDcMessage(DcService* dc, MessageKind kind, Slice body,
                    const MessageSink& reply,
                    const std::function<void(TcId)>& note_tc = nullptr);

/// Wire-cost counters of one binding, summed by the Cluster::Total*
/// rollups. Channel and socket bindings fill the same fields, so
/// msgs/txn comparisons across transports are apples to apples; direct
/// bindings contribute nothing (no wire).
struct WireTotals {
  uint64_t request_messages = 0;
  uint64_t op_messages = 0;
  uint64_t ops_carried = 0;
  uint64_t scan_messages = 0;
  uint64_t scan_rows_carried = 0;
  uint64_t scan_credit_messages = 0;
  uint64_t max_queued_scan_bytes = 0;  // merged with max(), not +
  uint64_t promote_messages = 0;
  uint64_t promote_ops_carried = 0;
};

/// The TC's DcClient over any carrier that moves (kind, body) messages:
/// requests leave through `send`; the carrier hands every reply message
/// that arrives to OnReply.
class WireDcClient : public DcClient {
 public:
  WireDcClient(const CoalesceOptions& coalesce, MessageSink send);

  void SendOperation(const OperationRequest& req) override;
  void SendControl(const ControlRequest& req) override;
  void SendOperationBatch(const std::vector<OperationRequest>& reqs) override;
  void SendScanStream(const ScanStreamRequest& req) override;
  void SendScanCredit(const ScanCreditRequest& req) override;
  /// Coalesces queued ops bound for this DC into one batch message.
  void QueueOperation(const OperationRequest& req) override;
  void FlushOperations() override;

  /// Decodes one reply message into the registered handler. False (and
  /// nothing delivered) when `kind` is not a reply kind or the body does
  /// not decode.
  bool OnReply(MessageKind kind, Slice body);

  /// Starts / stops the coalescer's background flusher.
  void StartFlusher() { coalescer_.Start(); }
  void StopFlusher() { coalescer_.Stop(); }

  /// Folds this client's counters into `totals` (all but the scan-reply
  /// residency, which the carrier measures where replies queue).
  void AddWireStats(WireTotals* totals) const;

  /// Operation-carrying request messages sent (kOperationRequest +
  /// kOperationBatch) — excludes control traffic, so msgs/txn is
  /// comparable against ops/txn.
  uint64_t op_messages() const { return op_messages_.load(); }
  /// Operations those messages carried; batching makes this exceed
  /// op_messages().
  uint64_t ops_carried() const { return ops_carried_.load(); }
  /// Scan-stream request messages sent — ONE per stream (attempt).
  uint64_t scan_messages() const { return scan_messages_.load(); }
  /// Chunk replies received and the rows they carried.
  uint64_t scan_chunks() const { return scan_chunks_.load(); }
  uint64_t scan_rows_carried() const { return scan_rows_carried_.load(); }
  /// kScanCredit messages sent (flow-control replenish, validated-window
  /// rewinds and close notices).
  uint64_t scan_credit_messages() const {
    return scan_credit_messages_.load();
  }
  /// Request messages carrying kPromoteVersion ops and the promote ops
  /// they carried — a K-key versioned commit should cost
  /// ceil(K / promote_batch_ops) messages, not K.
  uint64_t promote_messages() const { return promote_messages_.load(); }
  uint64_t promote_ops_carried() const {
    return promote_ops_carried_.load();
  }
  /// Coalescer flush reasons (diagnostics for tuning).
  uint64_t coalesce_idle_flushes() const { return coalescer_.idle_flushes(); }
  uint64_t coalesce_deadline_flushes() const {
    return coalescer_.deadline_flushes();
  }

 private:
  void Send(MessageKind kind, const std::string& body);

  const MessageSink send_;
  OpCoalescer coalescer_;
  std::atomic<uint64_t> request_messages_{0};
  std::atomic<uint64_t> op_messages_{0};
  std::atomic<uint64_t> ops_carried_{0};
  std::atomic<uint64_t> scan_messages_{0};
  std::atomic<uint64_t> scan_chunks_{0};
  std::atomic<uint64_t> scan_rows_carried_{0};
  std::atomic<uint64_t> scan_credit_messages_{0};
  std::atomic<uint64_t> promote_messages_{0};
  std::atomic<uint64_t> promote_ops_carried_{0};
};

}  // namespace untx
