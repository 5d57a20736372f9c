// The TC's per-operation path under concurrent clients: several threads
// run pipelined transactions against one TC and two DCs on the direct
// transport. A HoldingDc in front of each DC can hold back the first
// delivery of every operation (the TC's resend daemon delivers it again),
// so operations genuinely stay in flight on a transport that otherwise
// answers inline. The tests check that the per-transaction key gate and
// backpressure window still bound what reaches a DC, that every commit
// survives, and that a TC crash wakes every blocked submitter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kernel/cluster.h"

namespace untx {
namespace {

constexpr int kClients = 4;
constexpr TableId kTableA = 2;  // routed to DC 0 (table % 2)
constexpr TableId kTableB = 3;  // routed to DC 1

/// "c<client>/<n>": every client writes only keys it owns.
std::string ClientKey(int client, int n) {
  return "c" + std::to_string(client) + "/" + std::to_string(n);
}

/// The client a ClientKey belongs to, or -1 for any other key.
int ClientOf(const std::string& key) {
  if (key.size() < 3 || key[0] != 'c') return -1;
  const size_t slash = key.find('/');
  if (slash == std::string::npos) return -1;
  return std::stoi(key.substr(1, slash - 1));
}

/// A DcService in front of one DataComponent. In kHoldFirst mode the
/// first delivery of each client operation is swallowed (a Crashed reply
/// the direct client drops) and stays "held" until the TC resends it; in
/// kHoldAll mode nothing is ever answered. While held, an op counts
/// against its client's in-flight total at this DC and against its key.
class HoldingDc : public DcService {
 public:
  enum class Mode { kPass, kHoldFirst, kHoldAll };

  explicit HoldingDc(DataComponent* dc) : dc_(dc) {}

  void set_mode(Mode mode) {
    std::lock_guard<std::mutex> guard(mu_);
    mode_ = mode;
  }

  OperationReply Perform(const OperationRequest& req) override {
    const int client = ClientOf(req.key);
    if (client >= 0 && Hold(req, client)) {
      OperationReply reply;
      reply.lsn = req.lsn;
      reply.status = Status::Crashed("held back");
      return reply;
    }
    return dc_->Perform(req);
  }

  ControlReply Control(const ControlRequest& req) override {
    return dc_->Control(req);
  }

  void PerformScanStream(const ScanStreamRequest& req,
                         const ScanChunkEmitter& emit) override {
    dc_->PerformScanStream(req, emit);
  }

  void ScanCredit(const ScanCreditRequest& req,
                  const ScanChunkEmitter& emit) override {
    dc_->ScanCredit(req, emit);
  }

  /// Peak number of one client's ops held at once.
  uint32_t peak_in_flight() {
    std::lock_guard<std::mutex> guard(mu_);
    uint32_t peak = 0;
    for (const auto& [client, n] : peak_) peak = std::max(peak, n);
    return peak;
  }

  /// Ops that arrived while a conflicting op on the same key was held:
  /// two writes, or a read and a write.
  uint64_t gate_violations() {
    std::lock_guard<std::mutex> guard(mu_);
    return gate_violations_;
  }

  uint64_t held_total() {
    std::lock_guard<std::mutex> guard(mu_);
    return held_total_;
  }

 private:
  struct Held {
    int client;
    std::string key;
    bool write;
  };

  /// True if this delivery is swallowed.
  bool Hold(const OperationRequest& req, int client) {
    std::lock_guard<std::mutex> guard(mu_);
    auto held_it = held_.find(req.lsn);
    const bool first = seen_.insert(req.lsn).second;
    if (mode_ == Mode::kHoldAll || (mode_ == Mode::kHoldFirst && first)) {
      if (held_it != held_.end()) return true;  // a resend of a held op
      const bool write = IsWriteOp(req.op);
      for (const auto& [lsn, other] : held_) {
        if (other.key == req.key && (write || other.write)) {
          ++gate_violations_;
        }
      }
      held_[req.lsn] = Held{client, req.key, write};
      ++held_total_;
      uint32_t& count = in_flight_[client];
      peak_[client] = std::max(peak_[client], ++count);
      return true;
    }
    if (held_it != held_.end()) {
      --in_flight_[held_it->second.client];
      held_.erase(held_it);
    }
    return false;
  }

  DataComponent* dc_;
  std::mutex mu_;
  Mode mode_ = Mode::kPass;
  std::set<Lsn> seen_;
  std::map<Lsn, Held> held_;
  std::map<int, uint32_t> in_flight_;
  std::map<int, uint32_t> peak_;
  uint64_t gate_violations_ = 0;
  uint64_t held_total_ = 0;
};

/// Direct bindings through a HoldingDc per DC.
class HoldingFactory : public TransportFactory {
 public:
  std::unique_ptr<BoundTransport> Bind(TcId, DcId dc,
                                       DataComponent* target) override {
    auto binding = std::make_unique<Binding>(target);
    std::lock_guard<std::mutex> guard(mu_);
    holders_[dc] = &binding->holder;
    return binding;
  }

  HoldingDc* holder(DcId dc) {
    std::lock_guard<std::mutex> guard(mu_);
    return holders_.at(dc);
  }

  void set_mode(HoldingDc::Mode mode) {
    std::lock_guard<std::mutex> guard(mu_);
    for (auto& [dc, holder] : holders_) holder->set_mode(mode);
  }

 private:
  struct Binding : BoundTransport {
    explicit Binding(DataComponent* dc) : holder(dc), client_(&holder) {}
    DcClient* client() override { return &client_; }
    HoldingDc holder;
    DirectDcClient client_;
  };

  std::mutex mu_;
  std::map<DcId, HoldingDc*> holders_;
};

struct Deployment {
  std::shared_ptr<HoldingFactory> factory;
  std::unique_ptr<Cluster> cluster;
  TransactionComponent* tc() { return cluster->tc(0); }
};

Deployment Open(TcOptions tc) {
  Deployment d;
  d.factory = std::make_shared<HoldingFactory>();
  ClusterOptions options;
  options.num_dcs = 2;
  tc.control_interval_ms = 5;
  tc.resend_interval_ms = 5;
  tc.insert_phantom_protection = false;
  options.tcs.push_back(TcSpec{tc, nullptr, std::nullopt});
  options.binding_factory = d.factory;
  d.cluster = std::move(Cluster::Open(std::move(options))).ValueOrDie();
  EXPECT_TRUE(d.tc()->CreateTable(kTableA).ok());
  EXPECT_TRUE(d.tc()->CreateTable(kTableB).ok());
  return d;
}

/// Runs body(client) on kClients threads and joins them.
template <typename Body>
void RunClients(Body body) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(body, c);
  for (auto& t : threads) t.join();
}

/// Reads every expected (table, key) -> value back in one transaction.
void ExpectReadsBack(
    TransactionComponent* tc,
    const std::map<std::pair<TableId, std::string>, std::string>& expected) {
  TxnId txn = *tc->Begin();
  for (const auto& [where, value] : expected) {
    std::string got;
    ASSERT_TRUE(tc->Read(txn, where.first, where.second, &got).ok())
        << where.second;
    EXPECT_EQ(got, value) << where.second;
  }
  EXPECT_TRUE(tc->Commit(txn).ok());
}

TEST(TcConcurrencyTest, DisjointKeysEveryCommitReadsBack) {
  Deployment d = Open(TcOptions{});
  TransactionComponent* tc = d.tc();
  std::mutex mu;
  std::map<std::pair<TableId, std::string>, std::string> committed;
  RunClients([&](int client) {
    for (int t = 0; t < 40; ++t) {
      TxnId txn = *tc->Begin();
      std::vector<OpHandle> handles;
      std::map<std::pair<TableId, std::string>, std::string> writes;
      for (int i = 0; i < 3; ++i) {
        const std::string key = ClientKey(client, t * 3 + i);
        const std::string value = "v" + std::to_string(t);
        handles.push_back(tc->SubmitUpsert(txn, kTableA, key, value));
        handles.push_back(tc->SubmitUpsert(txn, kTableB, key, value + "b"));
        writes[{kTableA, key}] = value;
        writes[{kTableB, key}] = value + "b";
      }
      if (t > 0) {  // overwrite a key an earlier txn committed
        const std::string key = ClientKey(client, (t - 1) * 3);
        handles.push_back(tc->SubmitUpdate(txn, kTableA, key, "upd"));
        writes[{kTableA, key}] = "upd";
      }
      for (auto& h : handles) ASSERT_TRUE(h.submitted());
      ASSERT_TRUE(tc->Commit(txn).ok());
      std::lock_guard<std::mutex> guard(mu);
      for (auto& [where, value] : writes) committed[where] = value;
    }
  });
  EXPECT_EQ(tc->stats().txns_committed.load(),
            static_cast<uint64_t>(kClients * 40));
  ExpectReadsBack(tc, committed);
  EXPECT_EQ(tc->lock_stats().timeouts, 0u);
}

TEST(TcConcurrencyTest, SameKeyPipelinedWritesStayGated) {
  Deployment d = Open(TcOptions{});
  ASSERT_TRUE(d.cluster->dc(0)->options().conflict_sentinel);
  TransactionComponent* tc = d.tc();
  d.factory->set_mode(HoldingDc::Mode::kHoldFirst);
  std::mutex mu;
  std::map<std::pair<TableId, std::string>, std::string> committed;
  RunClients([&](int client) {
    for (int t = 0; t < 15; ++t) {
      const TableId table = t % 2 == 0 ? kTableA : kTableB;
      const std::string key = ClientKey(client, t);
      TxnId txn = *tc->Begin();
      // Two writes and a read of one key, none awaited: the gate must
      // keep each off the wire until its predecessor is acknowledged.
      OpHandle first = tc->SubmitUpsert(txn, table, key, "first");
      OpHandle second = tc->SubmitUpsert(txn, table, key, "second");
      OpHandle read = tc->SubmitRead(txn, table, key);
      std::string value;
      ASSERT_TRUE(tc->Await(&read, &value).ok());
      EXPECT_EQ(value, "second");
      ASSERT_TRUE(tc->Commit(txn).ok());
      std::lock_guard<std::mutex> guard(mu);
      committed[{table, key}] = "second";
    }
  });
  d.factory->set_mode(HoldingDc::Mode::kPass);
  for (DcId dc = 0; dc < 2; ++dc) {
    EXPECT_GT(d.factory->holder(dc)->held_total(), 0u);
    EXPECT_EQ(d.factory->holder(dc)->gate_violations(), 0u);
    EXPECT_EQ(d.cluster->dc(dc)->stats().conflicts_detected.load(), 0u);
  }
  EXPECT_GT(tc->stats().resends.load(), 0u);
  ExpectReadsBack(tc, committed);
}

TEST(TcConcurrencyTest, WindowCapsUnackedOpsPerTxnAndDc) {
  TcOptions options;
  options.max_outstanding_ops = 2;
  Deployment d = Open(options);
  TransactionComponent* tc = d.tc();
  d.factory->set_mode(HoldingDc::Mode::kHoldFirst);
  std::mutex mu;
  std::map<std::pair<TableId, std::string>, std::string> committed;
  RunClients([&](int client) {
    for (int t = 0; t < 5; ++t) {
      TxnId txn = *tc->Begin();
      std::map<std::pair<TableId, std::string>, std::string> writes;
      for (int i = 0; i < 6; ++i) {
        const std::string key = ClientKey(client, t * 6 + i);
        ASSERT_TRUE(tc->SubmitUpsert(txn, kTableA, key, "a").submitted());
        ASSERT_TRUE(tc->SubmitUpsert(txn, kTableB, key, "b").submitted());
        writes[{kTableA, key}] = "a";
        writes[{kTableB, key}] = "b";
      }
      ASSERT_TRUE(tc->Commit(txn).ok());
      std::lock_guard<std::mutex> guard(mu);
      committed.insert(writes.begin(), writes.end());
    }
  });
  d.factory->set_mode(HoldingDc::Mode::kPass);
  for (DcId dc = 0; dc < 2; ++dc) {
    EXPECT_EQ(d.factory->holder(dc)->peak_in_flight(), 2u) << "dc " << dc;
  }
  EXPECT_GT(tc->stats().backpressure_waits.load(), 0u);
  ExpectReadsBack(tc, committed);
}

TEST(TcConcurrencyTest, CrashWakesBlockedSubmitters) {
  TcOptions options;
  options.max_outstanding_ops = 2;
  options.op_timeout_ms = 30000;
  options.locks.wait_timeout_ms = 30000;
  Deployment d = Open(options);
  TransactionComponent* tc = d.tc();
  d.factory->set_mode(HoldingDc::Mode::kHoldAll);

  // The holder of "shared" keeps its X lock: its update is never answered.
  TxnId holder = *tc->Begin();
  ASSERT_TRUE(tc->SubmitUpdate(holder, kTableA, "c9/shared", "x").submitted());

  std::atomic<int> crashed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    // Each fills its window to DC 0 and blocks on the third submit.
    threads.emplace_back([&, c] {
      TxnId txn = *tc->Begin();
      for (int i = 0; i < 3; ++i) {
        OpHandle h = tc->SubmitUpsert(txn, kTableA, ClientKey(c, i), "v");
        if (i < 2) {
          EXPECT_TRUE(h.submitted());
        } else if (tc->Await(&h).IsCrashed()) {
          crashed.fetch_add(1);
        }
      }
    });
  }
  // One more blocks inside the lock manager behind the holder.
  threads.emplace_back([&] {
    TxnId txn = *tc->Begin();
    std::string value;
    if (!tc->Read(txn, kTableA, "c9/shared", &value).ok()) crashed.fetch_add(1);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((tc->stats().backpressure_waits.load() < kClients ||
          tc->lock_stats().waits < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(tc->stats().backpressure_waits.load(),
            static_cast<uint64_t>(kClients));
  ASSERT_EQ(tc->lock_stats().waits, 1u);

  const auto crash_at = std::chrono::steady_clock::now();
  d.cluster->CrashTc(0);
  for (auto& t : threads) t.join();
  const auto woke_after = std::chrono::steady_clock::now() - crash_at;
  EXPECT_EQ(crashed.load(), kClients + 1);
  EXPECT_LT(woke_after, std::chrono::seconds(5)) << "waiters sat out timeouts";

  d.factory->set_mode(HoldingDc::Mode::kPass);
  ASSERT_TRUE(d.cluster->RestartTc(0).ok());
  TxnId txn = *tc->Begin();
  ASSERT_TRUE(tc->Upsert(txn, kTableA, "c0/after", "restarted").ok());
  ASSERT_TRUE(tc->Commit(txn).ok());
  ExpectReadsBack(tc, {{{kTableA, "c0/after"}, "restarted"}});
}

}  // namespace
}  // namespace untx
