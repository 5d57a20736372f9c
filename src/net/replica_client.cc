#include "net/replica_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>

#include "dc/dc_api.h"
#include "net/frame.h"
#include "util/thread_name.h"

namespace untx {

namespace {

/// Blocking full-buffer send; false on any hard error.
bool SendAll(int fd, const std::string& wire) {
  size_t pos = 0;
  while (pos < wire.size()) {
    ssize_t n =
        ::send(fd, wire.data() + pos, wire.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

ReplicaClient::ReplicaClient(DataComponent* dc, ReplicaClientOptions options)
    : dc_(dc), options_(std::move(options)) {}

ReplicaClient::~ReplicaClient() { Stop(); }

void ReplicaClient::Start() {
  if (!stop_.exchange(false)) return;  // already running
  thread_ = std::thread([this] { Run(); });
}

void ReplicaClient::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void ReplicaClient::Run() {
  SetCurrentThreadName("replica-client");
  int backoff_ms = options_.reconnect_backoff_min_ms;
  std::mt19937 rng(options_.replica_id * 2654435761u + 17);
  // Sleeps in small slices so Stop() is never held up by a long backoff.
  auto interruptible_sleep = [&](int ms) {
    while (ms > 0 && !stop_.load()) {
      int slice = std::min(ms, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      ms -= slice;
    }
  };
  while (!stop_.load()) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      interruptible_sleep(backoff_ms);
      continue;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    bool dialed = inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) ==
                      1 &&
                  ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0;
    if (!dialed) {
      ::close(fd);
      reconnects_.fetch_add(1);
      // Jittered exponential backoff: up to +50% spread per dial.
      int jitter = static_cast<int>(rng() % (backoff_ms / 2 + 1));
      interruptible_sleep(backoff_ms + jitter);
      backoff_ms =
          std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bounded recv so the loop keeps observing stop_.
    timeval tv{};
    tv.tv_usec = 100 * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    // Subscribe from our own durable position: whatever the wire lost
    // last session, this re-requests.
    ReplicaSubscribeRequest sub;
    sub.replica_id = options_.replica_id;
    sub.from_rlsn =
        (dc_->redo_log() != nullptr ? dc_->redo_log()->end() : 0) + 1;
    std::string body;
    sub.EncodeTo(&body);
    std::string wire;
    AppendFrame(static_cast<uint8_t>(MessageKind::kReplicaSubscribe),
                Slice(body), &wire);
    if (!SendAll(fd, wire)) {
      ::close(fd);
      reconnects_.fetch_add(1);
      interruptible_sleep(backoff_ms);
      continue;
    }
    connected_.store(true);
    backoff_ms = options_.reconnect_backoff_min_ms;

    FrameReader reader;
    char buf[64 * 1024];
    bool dead = false;
    while (!stop_.load() && !dead) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) break;  // EOF: primary gone
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        break;
      }
      reader.Feed(buf, static_cast<size_t>(n));
      uint8_t kind = 0;
      std::string fbody;
      while (reader.Next(&kind, &fbody) == FrameDecode::kOk) {
        if (static_cast<MessageKind>(kind) != MessageKind::kReplicaEntries) {
          continue;  // confused peer; harmless
        }
        Slice fb(fbody);
        ReplicaEntriesMessage msg;
        if (!ReplicaEntriesMessage::DecodeFrom(&fb, &msg)) {
          dead = true;
          break;
        }
        Status s = dc_->ApplyReplicated(msg);
        if (s.ok()) batches_applied_.fetch_add(1);
        // Ack the TRUE log end either way: on failure the primary's
        // stop-and-wait shipper rewinds to it and re-ships.
        ReplicaAckMessage ack;
        ack.replica_id = options_.replica_id;
        ack.acked_rlsn =
            dc_->redo_log() != nullptr ? dc_->redo_log()->end() : 0;
        std::string ack_body;
        ack.EncodeTo(&ack_body);
        std::string ack_wire;
        AppendFrame(static_cast<uint8_t>(MessageKind::kReplicaAck),
                    Slice(ack_body), &ack_wire);
        if (!SendAll(fd, ack_wire)) {
          dead = true;
          break;
        }
      }
      if (reader.corrupt()) break;
    }
    connected_.store(false);
    ::close(fd);
    if (!stop_.load()) reconnects_.fetch_add(1);
  }
}

}  // namespace untx
