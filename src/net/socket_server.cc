#include "net/socket_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "dc/dc_api.h"
#include "kernel/dc_wire.h"
#include "kernel/redo_shipper.h"
#include "net/frame.h"
#include "util/thread_name.h"

namespace untx {
namespace internal {

namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One accepted TC connection. The reactor thread owns fd lifecycle and
/// reads; workers write replies through SendFrame. `wmu` guards the fd,
/// the out buffer and the tc set, so a worker's write and the reactor's
/// close can never race on the descriptor.
struct Session {
  std::mutex wmu;
  int fd = -1;
  bool alive = false;
  /// Set under wmu; the reactor's poll-set build reads it without.
  std::atomic<bool> want_write{false};
  std::string out;
  size_t out_pos = 0;
  /// TC ids seen in this session's decoded requests — the eviction set
  /// when the session drops.
  std::set<TcId> tcs;
  /// The TC most recently added to `tcs` (stored after the insert): a
  /// request from it skips wmu and the set.
  std::atomic<TcId> last_tc{kInvalidTcId};
  FrameReader reader;  // reactor-thread only
  /// Set once (under wmu) when a kReplicaSubscribe frame arrives: this
  /// session is a standby DC draining the redo log, not a TC. Stopped by
  /// CloseSession / StopAll; declared last so that, as a backstop, its
  /// thread is joined before the members its sends use are destroyed.
  std::unique_ptr<RedoShipper> shipper;

  /// Appends a frame and drains greedily; leftover bytes wait for
  /// POLLOUT. Returns bytes still buffered after the attempt (0 = all
  /// on the wire), or 0 with *ok=false if the session is gone.
  size_t SendFrame(uint8_t kind, const Slice& body, bool* ok) {
    std::lock_guard<std::mutex> guard(wmu);
    if (!alive || fd < 0) {
      *ok = false;
      return 0;
    }
    *ok = true;
    AppendFrame(kind, body, &out);
    while (out_pos < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                         MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
      }
      // A hard error leaves the bytes buffered; the reactor sees the
      // POLLERR/POLLHUP and closes the session.
      break;
    }
    if (out_pos >= out.size()) {
      out.clear();
      out_pos = 0;
      return 0;
    }
    return out.size() - out_pos;
  }
};

struct ServerImpl {
  /// Atomic: workers read it per frame; Retarget (failover) swaps it
  /// while they run. A replica session's shipper stays bound to the DC
  /// that served its subscribe.
  std::atomic<DataComponent*> dc{nullptr};
  SocketServerOptions options;

  int listen_fd = -1;
  uint16_t port = 0;
  int wake_fds[2] = {-1, -1};
  std::atomic<bool> stop{false};
  std::thread reactor;
  std::unique_ptr<ThreadPool> pool;

  std::mutex sessions_mu;
  std::vector<std::shared_ptr<Session>> sessions;

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> max_queued_reply_bytes{0};

  ~ServerImpl() { StopAll(); }

  Status StartAll() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
    int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::InvalidArgument("bad listen host: " + options.host);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status s = Status::IOError("bind: " + std::string(strerror(errno)));
      ::close(listen_fd);
      listen_fd = -1;
      return s;
    }
    if (::listen(listen_fd, 64) != 0) {
      Status s = Status::IOError("listen: " + std::string(strerror(errno)));
      ::close(listen_fd);
      listen_fd = -1;
      return s;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    port = ntohs(bound.sin_port);
    SetNonBlocking(listen_fd);
    if (pipe(wake_fds) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::IOError("pipe: " + std::string(strerror(errno)));
    }
    SetNonBlocking(wake_fds[0]);
    SetNonBlocking(wake_fds[1]);
    pool = std::make_unique<ThreadPool>(std::max(1, options.workers),
                                        "dc-worker");
    stop.store(false);
    reactor = std::thread([this] { Loop(); });
    return Status::OK();
  }

  void StopAll() {
    if (!reactor.joinable() && listen_fd < 0) return;
    stop.store(true);
    Wake();
    if (reactor.joinable()) reactor.join();
    // Workers may still hold sessions; stop them before closing fds so
    // no SendFrame runs against a closed descriptor. (SendFrame also
    // checks `alive` under wmu, so either order is safe — this one just
    // drains the backlog.)
    if (pool) pool->Shutdown();
    std::vector<std::shared_ptr<Session>> doomed;
    {
      std::lock_guard<std::mutex> guard(sessions_mu);
      doomed.swap(sessions);
    }
    for (auto& s : doomed) {
      RedoShipper* shipper = nullptr;
      {
        std::lock_guard<std::mutex> guard(s->wmu);
        if (s->fd >= 0) ::close(s->fd);
        s->fd = -1;
        s->alive = false;
        shipper = s->shipper.get();
      }
      // Outside wmu: the shipper's sends lock it.
      if (shipper != nullptr) shipper->Stop();
    }
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    for (int i = 0; i < 2; ++i) {
      if (wake_fds[i] >= 0) ::close(wake_fds[i]);
      wake_fds[i] = -1;
    }
  }

  void Wake() {
    if (wake_fds[1] >= 0) {
      char b = 1;
      ssize_t ignored = ::write(wake_fds[1], &b, 1);
      (void)ignored;
    }
  }

  void Loop() {
    SetCurrentThreadName("dc-reactor");
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Session>> polled;
    while (!stop.load()) {
      pfds.clear();
      polled.clear();
      pfds.push_back({wake_fds[0], POLLIN, 0});
      pfds.push_back({listen_fd, POLLIN, 0});
      {
        std::lock_guard<std::mutex> guard(sessions_mu);
        for (auto& s : sessions) {
          const short events = s->want_write ? POLLIN | POLLOUT : POLLIN;
          pfds.push_back({s->fd, events, 0});
          polled.push_back(s);
        }
      }
      int rc = ::poll(pfds.data(), pfds.size(), 50);
      if (stop.load()) break;
      if (rc <= 0) continue;
      if (pfds[0].revents & POLLIN) {
        char buf[64];
        while (::read(wake_fds[0], buf, sizeof(buf)) > 0) {
        }
      }
      if (pfds[1].revents & POLLIN) Accept();
      for (size_t i = 2; i < pfds.size(); ++i) {
        auto& s = polled[i - 2];
        short rev = pfds[i].revents;
        if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
          CloseSession(s);
          continue;
        }
        if (rev & POLLOUT) {
          if (!FlushSession(s)) {
            CloseSession(s);
            continue;
          }
        }
        if (rev & POLLIN) {
          if (!ReadSession(s)) CloseSession(s);
        }
      }
    }
  }

  void Accept() {
    while (true) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      SetNonBlocking(fd);
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto session = std::make_shared<Session>();
      session->fd = fd;
      session->alive = true;
      {
        std::lock_guard<std::mutex> guard(sessions_mu);
        sessions.push_back(session);
      }
      accepted.fetch_add(1);
    }
  }

  /// Drains the pending out buffer on POLLOUT. False on a hard error.
  bool FlushSession(const std::shared_ptr<Session>& s) {
    std::lock_guard<std::mutex> guard(s->wmu);
    if (!s->alive || s->fd < 0) return false;
    while (s->out_pos < s->out.size()) {
      ssize_t n = ::send(s->fd, s->out.data() + s->out_pos,
                         s->out.size() - s->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        s->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    s->out.clear();
    s->out_pos = 0;
    s->want_write = false;
    return true;
  }

  /// Reads and dispatches frames. False on EOF, error, or a corrupt
  /// stream (framing is checksummed; a bad frame means the byte stream
  /// is unusable — kill the session and let the TC redial).
  bool ReadSession(const std::shared_ptr<Session>& s) {
    char buf[64 * 1024];
    while (true) {
      ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        s->reader.Feed(buf, static_cast<size_t>(n));
        uint8_t kind = 0;
        std::string body;
        while (s->reader.Next(&kind, &body) == FrameDecode::kOk) {
          Dispatch(s, kind, std::move(body));
        }
        if (s->reader.corrupt()) {
          corrupt.fetch_add(1);
          return false;
        }
        if (n == static_cast<ssize_t>(sizeof(buf))) continue;
        return true;
      }
      if (n == 0) return false;  // EOF: peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Hands one decoded frame to the worker pool. The session pointer is
  /// shared so a close never invalidates a queued task; SendFrame checks
  /// liveness before touching the fd.
  void Dispatch(const std::shared_ptr<Session>& s, uint8_t kind,
                std::string body) {
    auto task = [this, s, kind, body = std::move(body)]() {
      HandleFrame(s, static_cast<MessageKind>(kind), body);
    };
    if (!pool->Submit(std::move(task))) {
      // Shutting down; drop — the TC resends.
    }
  }

  void NoteTc(const std::shared_ptr<Session>& s, TcId tc) {
    if (s->last_tc.load(std::memory_order_acquire) == tc) return;
    std::lock_guard<std::mutex> guard(s->wmu);
    s->tcs.insert(tc);
    s->last_tc.store(tc, std::memory_order_release);
  }

  void Reply(Session& s, MessageKind kind, const std::string& body) {
    bool ok = false;
    size_t queued = s.SendFrame(static_cast<uint8_t>(kind), Slice(body), &ok);
    if (!ok) return;
    if (queued > 0) {
      Wake();  // reactor must start polling POLLOUT for this session
      uint64_t seen = max_queued_reply_bytes.load();
      while (queued > seen &&
             !max_queued_reply_bytes.compare_exchange_weak(seen, queued)) {
      }
    }
  }

  /// TC requests go to the shared ServeDcMessage (the same decode and
  /// crashed-reply suppression the channel server threads run), with
  /// replies routed to the arrival session; the server itself handles
  /// only the replica-shipping kinds.
  void HandleFrame(const std::shared_ptr<Session>& s, MessageKind kind,
                   const std::string& wire_body) {
    Slice body(wire_body);
    // One consistent backend per frame (Retarget may swap it between
    // frames during a failover).
    DataComponent* dc = this->dc.load();
    if (ServeDcMessage(
            dc, kind, body,
            [this, &s](MessageKind reply_kind, const std::string& out) {
              Reply(*s, reply_kind, out);
            },
            [this, &s](TcId tc) { NoteTc(s, tc); })) {
      return;
    }
    switch (kind) {
      case MessageKind::kReplicaSubscribe: {
        ReplicaSubscribeRequest req;
        if (!ReplicaSubscribeRequest::DecodeFrom(&body, &req)) return;
        if (dc->redo_log() == nullptr) return;  // no history to ship
        Session* raw = s.get();
        std::lock_guard<std::mutex> guard(s->wmu);
        // One subscription per session, and none on a closed one (its
        // CloseSession has already run and would never stop it).
        if (!s->alive || s->shipper != nullptr) return;
        s->shipper = std::make_unique<RedoShipper>(
            dc, req.replica_id, [this, raw](const ReplicaEntriesMessage& msg) {
              std::string out;
              msg.EncodeTo(&out);
              Reply(*raw, MessageKind::kReplicaEntries, out);
            });
        s->shipper->Start(req.from_rlsn == 0 ? 0 : req.from_rlsn - 1);
        return;
      }
      case MessageKind::kReplicaAck: {
        ReplicaAckMessage msg;
        if (!ReplicaAckMessage::DecodeFrom(&body, &msg)) return;
        RedoShipper* shipper = nullptr;
        {
          std::lock_guard<std::mutex> guard(s->wmu);
          shipper = s->shipper.get();
        }
        if (shipper != nullptr) shipper->OnAck(msg.acked_rlsn);
        return;
      }
      default:
        // Reply kinds or undecodable requests: a confused peer. Ignore.
        return;
    }
  }

  /// Reactor-side teardown of one session: close the fd, drop it from
  /// the poll set, and evict DC scan cursors for every TC this session
  /// served that no OTHER live session still serves (a TC may hold
  /// bindings through more than one connection only transiently, during
  /// a reconnect race — the check keeps that case safe).
  void CloseSession(const std::shared_ptr<Session>& s) {
    std::set<TcId> served;
    RedoShipper* shipper = nullptr;
    {
      std::lock_guard<std::mutex> guard(s->wmu);
      if (!s->alive) return;
      s->alive = false;
      if (s->fd >= 0) ::close(s->fd);
      s->fd = -1;
      served = s->tcs;
      shipper = s->shipper.get();
    }
    // Outside wmu: the shipper's sends lock it. Stopping also drops the
    // standby from the ack map, so it stops holding back the TCs'
    // checkpoint clamp; it re-registers when it re-subscribes.
    if (shipper != nullptr) shipper->Stop();
    {
      std::lock_guard<std::mutex> guard(sessions_mu);
      sessions.erase(std::remove(sessions.begin(), sessions.end(), s),
                     sessions.end());
      for (auto& other : sessions) {
        std::lock_guard<std::mutex> wguard(other->wmu);
        for (TcId tc : other->tcs) served.erase(tc);
      }
    }
    DataComponent* d = dc.load();
    for (TcId tc : served) d->OnTcDisconnect(tc);
  }
};

}  // namespace internal

SocketServer::SocketServer(DataComponent* dc, SocketServerOptions options)
    : impl_(std::make_unique<internal::ServerImpl>()) {
  impl_->dc = dc;
  impl_->options = std::move(options);
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() { return impl_->StartAll(); }

void SocketServer::Stop() { impl_->StopAll(); }

void SocketServer::Retarget(DataComponent* dc) { impl_->dc.store(dc); }

uint16_t SocketServer::port() const { return impl_->port; }

size_t SocketServer::session_count() const {
  std::lock_guard<std::mutex> guard(impl_->sessions_mu);
  return impl_->sessions.size();
}

size_t SocketServer::replica_session_count() const {
  std::lock_guard<std::mutex> guard(impl_->sessions_mu);
  size_t n = 0;
  for (const auto& s : impl_->sessions) {
    std::lock_guard<std::mutex> wguard(s->wmu);
    if (s->shipper != nullptr) ++n;
  }
  return n;
}

uint64_t SocketServer::sessions_accepted() const {
  return impl_->accepted.load();
}

uint64_t SocketServer::corrupt_frames() const { return impl_->corrupt.load(); }

uint64_t SocketServer::max_queued_reply_bytes() const {
  return impl_->max_queued_reply_bytes.load();
}

}  // namespace untx
