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
#include "kernel/redo_shipper.h"
#include "net/frame.h"
#include "util/thread_name.h"

namespace untx {

namespace {

/// Reconnect backoff: doubled per failed dial from min to max, with up
/// to 50% random jitter so restarted standbys don't dial in step.
constexpr int kBackoffMinMs = 50;
constexpr int kBackoffMaxMs = 1000;

/// Dials host:port; -1 on failure. The recv timeout is bounded so the
/// reader keeps observing Stop().
int Dial(const ReplicaClientOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_usec = 100 * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

/// Frames `msg` and writes it whole (blocking); false on any hard error.
template <typename Message>
bool SendMessage(int fd, MessageKind kind, const Message& msg) {
  std::string body;
  msg.EncodeTo(&body);
  std::string wire;
  AppendFrame(static_cast<uint8_t>(kind), Slice(body), &wire);
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
  int backoff_ms = kBackoffMinMs;
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
    // Subscribe from our own durable position: whatever the wire lost
    // last session, this re-requests.
    ReplicaSubscribeRequest sub;
    sub.replica_id = options_.replica_id;
    sub.from_rlsn =
        (dc_->redo_log() != nullptr ? dc_->redo_log()->end() : 0) + 1;
    const int fd = Dial(options_);
    if (fd < 0 || !SendMessage(fd, MessageKind::kReplicaSubscribe, sub)) {
      if (fd >= 0) ::close(fd);
      int jitter = static_cast<int>(rng() % (backoff_ms / 2 + 1));
      interruptible_sleep(backoff_ms + jitter);
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
      continue;
    }
    backoff_ms = kBackoffMinMs;

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
      std::string body;
      while (!dead && reader.Next(&kind, &body) == FrameDecode::kOk) {
        if (static_cast<MessageKind>(kind) != MessageKind::kReplicaEntries) {
          continue;  // confused peer; harmless
        }
        Slice in(body);
        ReplicaEntriesMessage msg;
        dead = !ReplicaEntriesMessage::DecodeFrom(&in, &msg) ||
               !SendMessage(fd, MessageKind::kReplicaAck,
                            ApplyShippedBatch(dc_, options_.replica_id, msg));
      }
      if (reader.corrupt()) break;
    }
    ::close(fd);
  }
}

}  // namespace untx
