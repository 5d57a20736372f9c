#include "kernel/channel_transport.h"

#include <algorithm>

#include "util/thread_name.h"

namespace untx {

ChannelTransport::ChannelTransport(DataComponent* dc,
                                   ChannelTransportOptions options)
    : WireDcClient(options.coalesce,
                   [this](MessageKind kind, const std::string& body) {
                     request_ch_.Send(WrapMessage(kind, body));
                   }),
      dc_(dc),
      options_(options),
      request_ch_(options.request_channel),
      reply_ch_(options.reply_channel) {}

ChannelTransport::~ChannelTransport() { Stop(); }

void ChannelTransport::Start() {
  stop_.store(false);
  for (int i = 0; i < options_.server_threads; ++i) {
    servers_.emplace_back([this] { ServerLoop(); });
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  StartFlusher();
}

void ChannelTransport::Stop() {
  stop_.store(true);
  StopFlusher();
  for (auto& t : servers_) {
    if (t.joinable()) t.join();
  }
  servers_.clear();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ChannelTransport::AddWireStats(WireTotals* totals) const {
  WireDcClient::AddWireStats(totals);
  totals->max_queued_scan_bytes =
      std::max(totals->max_queued_scan_bytes, max_queued_scan_bytes());
}

void ChannelTransport::Reply(MessageKind kind, const std::string& body) {
  std::string wire = WrapMessage(kind, body);
  if (kind == MessageKind::kScanStreamChunk) {
    // Account the chunk's residency in the reply channel: incremented at
    // send, decremented when the dispatcher pulls it off. The high-water
    // mark is the memory bound the credit window is supposed to enforce.
    const uint64_t size = wire.size();
    const uint64_t now = queued_scan_bytes_.fetch_add(size) + size;
    uint64_t seen = max_queued_scan_bytes_.load();
    while (now > seen &&
           !max_queued_scan_bytes_.compare_exchange_weak(seen, now)) {
    }
  }
  reply_ch_.Send(std::move(wire));
}

void ChannelTransport::ServerLoop() {
  SetCurrentThreadName("chan-server");
  std::string wire;
  while (!stop_.load()) {
    if (!request_ch_.Receive(&wire, 20)) continue;
    MessageKind kind;
    Slice body;
    if (!UnwrapMessage(wire, &kind, &body)) continue;
    // One consistent backend per message (Retarget may swap it between
    // messages during a failover).
    ServeDcMessage(dc_.load(), kind, body,
                   [this](MessageKind reply_kind, const std::string& out) {
                     Reply(reply_kind, out);
                   });
  }
}

void ChannelTransport::DispatchLoop() {
  SetCurrentThreadName("chan-dispatch");
  std::string wire;
  while (!stop_.load()) {
    if (!reply_ch_.Receive(&wire, 20)) continue;
    MessageKind kind;
    Slice body;
    if (!UnwrapMessage(wire, &kind, &body)) continue;
    if (kind == MessageKind::kScanStreamChunk) {
      // Off the reply channel: release its queued-byte accounting. (A
      // duplicated chunk under-counts here and a dropped one never
      // arrives, so the residual can drift on lossy channels — the
      // high-water mark stays a conservative upper bound.)
      const uint64_t size = wire.size();
      uint64_t queued = queued_scan_bytes_.load();
      while (queued > 0 &&
             !queued_scan_bytes_.compare_exchange_weak(
                 queued, queued >= size ? queued - size : 0)) {
      }
    }
    OnReply(kind, body);
  }
}

}  // namespace untx
