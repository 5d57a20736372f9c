// The one redo shipper (kernel/redo_shipper.h) and its carriers.
//   * A fake carrier that records batches and acks by hand: one batch in
//     flight, a short ack rewinds after the back-off, only durable
//     entries ship, Stop() drops the standby from the ack map.
//   * ApplyShippedBatch acks the standby's true end, applied or not.
//   * The socket carrier in one process: a SocketServer primary and a
//     ReplicaClient standby catch up, a dropped session is forgotten,
//     and the standby re-subscribes from its own end and drains again.
#include "kernel/redo_shipper.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dc/data_component.h"
#include "net/frame.h"
#include "net/replica_client.h"
#include "net/socket_server.h"
#include "storage/stable_store.h"

namespace untx {

namespace {

using Clock = std::chrono::steady_clock;

constexpr TableId kTable = 1;
constexpr uint32_t kReplicaId = 7;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

/// Waits until the predicate holds or ~5s pass.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// A redo-logged DataComponent on its own in-memory store.
struct Dc {
  Dc() : store(StoreOptions()), dc(&store, DcOptions()) {
    EXPECT_TRUE(dc.Initialize().ok());
  }

  static StableStoreOptions StoreOptions() {
    StableStoreOptions options;
    options.page_size = 1024;
    options.trailer_capacity = 128;
    return options;
  }
  static DataComponentOptions DcOptions() {
    DataComponentOptions options;
    options.redo_log_enabled = true;
    return options;
  }

  DcRedoLog* log() { return dc.redo_log(); }

  /// Appends `n` control entries, forced or left in the volatile tail.
  void Append(int n, bool force) {
    for (int i = 0; i < n; ++i) {
      RedoEntry e;
      e.kind = RedoEntryKind::kEosl;
      e.tc = 1;
      e.lsn = log()->end() + 1;
      log()->Append(e);
    }
    if (force) log()->Force();
  }

  OperationReply Perform(OpType op, const std::string& key,
                         const std::string& value = "") {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn++;
    req.op = op;
    req.table_id = kTable;
    req.key = key;
    req.value = value;
    return dc.Perform(req);
  }

  StableStore store;
  DataComponent dc;
  Lsn next_lsn = 1;
};

/// Records every batch the shipper sends; the test acks by hand.
class FakeCarrier {
 public:
  struct Batch {
    uint64_t from = 0;
    size_t count = 0;
    Clock::time_point at;
  };

  RedoShipper::SendFn Send() {
    return [this](const ReplicaEntriesMessage& msg) {
      std::lock_guard<std::mutex> lock(mu_);
      batches_.push_back({msg.from_rlsn, msg.entries.size(), Clock::now()});
      cv_.notify_all();
    };
  }

  /// The n-th batch (0-based), waiting up to 5s for it to be sent.
  Batch Wait(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(5),
                             [&] { return batches_.size() > n; }))
        << "batch " << n << " was never sent";
    return batches_.size() > n ? batches_[n] : Batch{};
  }

  /// Batches sent after a quiet `ms`.
  size_t CountAfter(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    std::lock_guard<std::mutex> lock(mu_);
    return batches_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Batch> batches_;
};

TEST(RedoShipperTest, OneBatchInFlightUntilItsAck) {
  Dc primary;
  primary.Append(300, /*force=*/true);
  FakeCarrier carrier;
  RedoShipper shipper(&primary.dc, kReplicaId, carrier.Send());
  shipper.Start(0);

  FakeCarrier::Batch first = carrier.Wait(0);
  EXPECT_EQ(first.from, 1u);
  EXPECT_EQ(first.count, 256u);
  EXPECT_EQ(carrier.CountAfter(100), 1u) << "second batch before an ack";

  shipper.OnAck(256);
  FakeCarrier::Batch second = carrier.Wait(1);
  EXPECT_EQ(second.from, 257u);
  EXPECT_EQ(second.count, 44u);
  EXPECT_EQ(carrier.CountAfter(100), 2u) << "second batch never acked";
  EXPECT_EQ(primary.log()->ReplicaAcks()[kReplicaId], 256u);

  // Caught up: nothing ships until the primary forces more.
  shipper.OnAck(300);
  EXPECT_EQ(carrier.CountAfter(100), 2u);
  primary.Append(5, /*force=*/true);
  FakeCarrier::Batch third = carrier.Wait(2);
  EXPECT_EQ(third.from, 301u);
  EXPECT_EQ(third.count, 5u);
}

TEST(RedoShipperTest, ShortAckRewindsAfterBackOff) {
  Dc primary;
  primary.Append(300, /*force=*/true);
  FakeCarrier carrier;
  RedoShipper shipper(&primary.dc, kReplicaId, carrier.Send());
  shipper.Start(0);
  ASSERT_EQ(carrier.Wait(0).count, 256u);

  // The standby applied only up to 100 (busy, say): re-ship from 101,
  // but not before the back-off.
  const Clock::time_point acked_at = Clock::now();
  shipper.OnAck(100);
  FakeCarrier::Batch retry = carrier.Wait(1);
  EXPECT_EQ(retry.from, 101u);
  EXPECT_EQ(retry.count, 200u);
  EXPECT_GE(retry.at - acked_at, std::chrono::milliseconds(10))
      << "a rejected batch was re-shipped at once";
  EXPECT_EQ(primary.log()->ReplicaAcks()[kReplicaId], 100u);
}

TEST(RedoShipperTest, ShipsOnlyDurableEntries) {
  Dc primary;
  primary.Append(5, /*force=*/true);
  primary.Append(3, /*force=*/false);
  FakeCarrier carrier;
  RedoShipper shipper(&primary.dc, kReplicaId, carrier.Send());
  shipper.Start(0);

  FakeCarrier::Batch first = carrier.Wait(0);
  EXPECT_EQ(first.from, 1u);
  EXPECT_EQ(first.count, 5u) << "a volatile entry shipped";
  shipper.OnAck(5);
  EXPECT_EQ(carrier.CountAfter(100), 1u);

  primary.log()->Force();
  FakeCarrier::Batch second = carrier.Wait(1);
  EXPECT_EQ(second.from, 6u);
  EXPECT_EQ(second.count, 3u);
}

TEST(RedoShipperTest, StopForgetsTheReplica) {
  Dc primary;
  primary.Append(10, /*force=*/true);
  FakeCarrier carrier;
  RedoShipper shipper(&primary.dc, kReplicaId, carrier.Send());
  shipper.Start(4);
  EXPECT_EQ(primary.log()->ReplicaAcks()[kReplicaId], 4u)
      << "the standby registers at its own end";
  EXPECT_EQ(carrier.Wait(0).from, 5u);

  shipper.Stop();
  EXPECT_EQ(primary.log()->ReplicaAcks().count(kReplicaId), 0u);
  shipper.OnAck(10);  // a late ack must not re-register it
  EXPECT_EQ(primary.log()->ReplicaAcks().count(kReplicaId), 0u);
  EXPECT_EQ(primary.log()->MaxReplicaLag(), 0u);
}

TEST(RedoShipperTest, ApplyShippedBatchAcksTheTrueEnd) {
  Dc primary;
  ASSERT_TRUE(primary.Perform(OpType::kCreateTable, "").status.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary.Perform(OpType::kUpsert, Key(i), "v").status.ok());
  }
  Dc standby;
  standby.dc.StartAsReplica();

  ReplicaEntriesMessage gap;
  gap.from_rlsn = primary.log()->ReadFrom(3, 256, &gap.entries);
  ReplicaAckMessage ack = ApplyShippedBatch(&standby.dc, kReplicaId, gap);
  EXPECT_EQ(ack.replica_id, kReplicaId);
  EXPECT_EQ(ack.acked_rlsn, 0u) << "a rejected batch acks the old end";

  ReplicaEntriesMessage all;
  all.from_rlsn = primary.log()->ReadFrom(1, 256, &all.entries);
  ack = ApplyShippedBatch(&standby.dc, kReplicaId, all);
  EXPECT_EQ(ack.acked_rlsn, primary.log()->end());
}

// ---- The socket carrier ------------------------------------------------------

/// Points a ReplicaClient for `standby` at a bare loopback listener that
/// never ships anything, and returns the subscribe it sends.
ReplicaSubscribeRequest FirstSubscribe(DataComponent* standby) {
  ReplicaSubscribeRequest sub;
  sub.from_rlsn = 0;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  EXPECT_EQ(::listen(listener, 1), 0);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  ReplicaClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.replica_id = kReplicaId;
  ReplicaClient client(standby, options);
  client.Start();
  pollfd pfd{listener, POLLIN, 0};
  if (::poll(&pfd, 1, 5000) == 1) {
    const int fd = ::accept(listener, nullptr, nullptr);
    FrameReader reader;
    uint8_t kind = 0;
    std::string body;
    char buf[256];
    pfd = {fd, POLLIN, 0};
    while (reader.Next(&kind, &body) != FrameDecode::kOk &&
           ::poll(&pfd, 1, 5000) == 1) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      reader.Feed(buf, static_cast<size_t>(n));
    }
    Slice in(body);
    EXPECT_EQ(static_cast<MessageKind>(kind), MessageKind::kReplicaSubscribe);
    EXPECT_TRUE(ReplicaSubscribeRequest::DecodeFrom(&in, &sub));
    ::close(fd);
  }
  client.Stop();
  ::close(listener);
  return sub;
}

TEST(RedoShipperTest, SocketStandbyCatchesUpAndResubscribes) {
  Dc primary;
  ASSERT_TRUE(primary.Perform(OpType::kCreateTable, "").status.ok());
  std::map<std::string, std::string> model;
  auto write = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(
          primary.Perform(OpType::kUpsert, Key(i % 400), value).status.ok());
      model[Key(i % 400)] = value;
    }
  };
  write(0, 600);  // more than two batches

  SocketServer server(&primary.dc, SocketServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Dc standby;
  standby.dc.StartAsReplica();
  ReplicaClientOptions options;
  options.port = server.port();
  options.replica_id = kReplicaId;
  ReplicaClient client(&standby.dc, options);
  client.Start();

  auto drained = [&] {
    return primary.log()->ReplicaAcks().count(kReplicaId) == 1 &&
           primary.log()->MaxReplicaLag() == 0 &&
           standby.log()->end() == primary.log()->end();
  };
  ASSERT_TRUE(WaitFor(drained))
      << "lag " << primary.log()->MaxReplicaLag() << ", standby end "
      << standby.log()->end() << " of " << primary.log()->end();
  EXPECT_EQ(server.replica_session_count(), 1u);

  // Dropping the session forgets the standby's ack entry.
  client.Stop();
  ASSERT_TRUE(WaitFor([&] {
    return primary.log()->ReplicaAcks().count(kReplicaId) == 0 &&
           server.replica_session_count() == 0;
  }));

  // It subscribes from its own end, and when history has moved on while
  // it was away it drains again.
  const uint64_t standby_end = standby.log()->end();
  EXPECT_EQ(FirstSubscribe(&standby.dc).from_rlsn, standby_end + 1);
  const uint64_t applied =
      standby.dc.stats().replica_entries_applied.load();
  write(600, 700);
  client.Start();
  ASSERT_TRUE(WaitFor(drained));
  EXPECT_EQ(standby.dc.stats().replica_entries_applied.load() - applied,
            primary.log()->end() - standby_end);
  EXPECT_EQ(server.replica_session_count(), 1u);

  // The standby holds the primary's state.
  client.Stop();
  server.Stop();
  standby.dc.Promote(1);
  for (const auto& [key, value] : model) {
    OperationRequest read;
    read.tc_id = 1;
    read.lsn = primary.next_lsn++;
    read.op = OpType::kRead;
    read.table_id = kTable;
    read.key = key;
    OperationReply got = standby.dc.Perform(read);
    ASSERT_TRUE(got.status.ok()) << key << ": " << got.status.ToString();
    EXPECT_EQ(got.value, value) << key;
  }
}

}  // namespace
}  // namespace untx
