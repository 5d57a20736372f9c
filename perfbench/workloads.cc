// The three workloads. Each drives the kernel only through its public
// API (Cluster, TransactionComponent, MovieSite) and checks its own
// results: every client remembers what it committed to the keys it owns,
// so reads of those keys, scans over them and the final read-back can be
// compared with the exact expected values.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cloud/movie_site.h"
#include "common/random.h"
#include "perfbench.h"
#include "trace.h"
#include "util/repeating_thread.h"

namespace perfbench {

using untx::Cluster;
using untx::DataComponent;
using untx::Status;
using untx::StatusOr;
using untx::TableId;
using untx::TransactionComponent;
using untx::TxnId;

Counters Counters::Snapshot(Cluster* cluster) {
  Counters c;
  for (int t = 0; t < cluster->num_tcs(); ++t) {
    TransactionComponent* tc = cluster->tc(t);
    const untx::TcStats& s = tc->stats();
    c.deadlocks += s.deadlocks.load();
    c.ops_sent += s.ops_sent.load();
    c.resends += s.resends.load();
    c.dup_replies += s.dup_replies.load();
    c.probes += s.probes.load();
    const untx::LockManagerStats locks = tc->lock_stats();
    c.lock_acquisitions += locks.acquisitions;
    c.lock_waits += locks.waits;
    c.log_forces += tc->log()->force_count();
    c.log_bytes += tc->log()->bytes_appended();
  }
  const untx::WireTotals wire = cluster->TotalWireStats();
  c.op_messages = wire.op_messages;
  c.ops_carried = wire.ops_carried;
  c.scan_messages = wire.scan_messages;
  c.scan_credit_messages = wire.scan_credit_messages;
  c.promote_messages = wire.promote_messages;
  c.max_queued_scan_bytes = wire.max_queued_scan_bytes;
  for (int d = 0; d < cluster->num_dcs(); ++d) {
    DataComponent* dc = cluster->dc(d);
    const untx::DataComponentStats& s = dc->stats();
    c.dc_ops += s.ops.load();
    c.reply_cache_hits += s.reply_cache_hits.load();
    c.scan_streams += s.scan_streams.load();
    c.scan_pauses += s.scan_stream_pauses.load();
    c.cursor_hint_hits += s.scan_cursor_hint_hits.load();
    c.cursor_descends += s.scan_cursor_descends.load();
    c.redo_entries += s.redo_entries_appended.load();
    // The pool, tree and store counters are plain fields the kernel
    // bumps under its own locks; the benchmark reads them only while its
    // clients and background threads are stopped.
    const untx::BufferPoolStats pool = dc->pool()->stats();
    c.pool_fetches += pool.fetches;
    c.pool_hits += pool.hits;
    c.pool_evictions += pool.evictions;
    c.pool_overflows += pool.overflows;
    c.pool_flushes += pool.flushes;
    c.btree_splits += dc->btree()->stats().splits;
    c.store_reads += dc->store()->reads();
    c.store_writes += dc->store()->writes();
    c.page_size = dc->store()->page_size();
  }
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d = *this;
  d.deadlocks -= b.deadlocks;
  d.ops_sent -= b.ops_sent;
  d.resends -= b.resends;
  d.dup_replies -= b.dup_replies;
  d.probes -= b.probes;
  d.lock_acquisitions -= b.lock_acquisitions;
  d.lock_waits -= b.lock_waits;
  d.log_forces -= b.log_forces;
  d.log_bytes -= b.log_bytes;
  d.op_messages -= b.op_messages;
  d.ops_carried -= b.ops_carried;
  d.scan_messages -= b.scan_messages;
  d.scan_credit_messages -= b.scan_credit_messages;
  d.promote_messages -= b.promote_messages;
  d.dc_ops -= b.dc_ops;
  d.reply_cache_hits -= b.reply_cache_hits;
  d.scan_streams -= b.scan_streams;
  d.scan_pauses -= b.scan_pauses;
  d.cursor_hint_hits -= b.cursor_hint_hits;
  d.cursor_descends -= b.cursor_descends;
  d.redo_entries -= b.redo_entries;
  d.pool_fetches -= b.pool_fetches;
  d.pool_hits -= b.pool_hits;
  d.pool_evictions -= b.pool_evictions;
  d.pool_overflows -= b.pool_overflows;
  d.pool_flushes -= b.pool_flushes;
  d.btree_splits -= b.btree_splits;
  d.store_reads -= b.store_reads;
  d.store_writes -= b.store_writes;
  return d;
}

namespace {

constexpr TableId kTables[2] = {1, 2};
constexpr size_t kMaxErrors = 8;

/// Keys are "k" + 9 digits; values are exactly 24 bytes and name the key
/// they belong to, the writer (0 = loader, c+1 = client c) and the
/// writer's version counter — so any read can be checked for its key.
std::string Key(uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%09u", id);
  return buf;
}

std::string Value(uint32_t id, uint32_t writer, uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%09u.%02u.%011llu", id, writer,
                static_cast<unsigned long long>(version));
  return buf;
}

bool ValueNamesKey(const std::string& value, uint32_t id) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "%09u.", id);
  return value.size() == 24 && value.compare(0, 10, prefix) == 0;
}

uint64_t Slot(int table_index, uint32_t id) {
  return (static_cast<uint64_t>(table_index) << 32) | id;
}

template <typename Fn>
auto Timed(SpanName name, Fn&& fn) {
  ScopedSpan span(name);
  return fn();
}

/// Runs fn(c) on `n` threads and joins them.
void ParallelFor(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int c = 0; c < n; ++c) threads.emplace_back(fn, c);
  for (auto& t : threads) t.join();
}

/// Thread-safe list of the first few correctness violations.
class ErrorLog {
 public:
  void Add(std::string error) {
    std::lock_guard<std::mutex> guard(mu_);
    ++count_;
    if (errors_.size() < kMaxErrors) errors_.push_back(std::move(error));
  }
  void AppendTo(std::vector<std::string>* out) const {
    std::lock_guard<std::mutex> guard(mu_);
    out->insert(out->end(), errors_.begin(), errors_.end());
    if (count_ > errors_.size()) {
      out->push_back(std::to_string(count_ - errors_.size()) +
                     " more violations");
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
  size_t count_ = 0;
};

/// Contention aborts are failures the client moves past; anything else
/// means the kernel broke a promise.
Outcome Classify(const Status& s, const char* what, ErrorLog* errors) {
  if (s.IsDeadlock() || s.IsTimedOut() || s.IsBusy()) {
    return Outcome::kFailed;
  }
  errors->Add(std::string(what) + ": " + s.ToString());
  return Outcome::kWrong;
}

/// Reads `expected` (key -> value) back through `tc` in pipelined
/// transactions of up to 128 reads; mismatches go to `errors`.
void ReadBack(TransactionComponent* tc,
              const std::vector<std::pair<TableId, std::string>>& keys,
              const std::vector<std::string>& expected, ErrorLog* errors) {
  constexpr size_t kBatch = 128;
  for (size_t lo = 0; lo < keys.size(); lo += kBatch) {
    const size_t hi = std::min(keys.size(), lo + kBatch);
    StatusOr<TxnId> txn = tc->Begin();
    if (!txn.ok()) {
      errors->Add("read-back begin: " + txn.status().ToString());
      return;
    }
    std::vector<untx::OpHandle> handles;
    handles.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      handles.push_back(tc->SubmitRead(*txn, keys[i].first, keys[i].second));
    }
    for (size_t i = lo; i < hi; ++i) {
      std::string value;
      Status s = tc->Await(&handles[i - lo], &value);
      if (!s.ok()) {
        errors->Add("read-back of " + keys[i].second + ": " + s.ToString());
      } else if (value != expected[i]) {
        errors->Add("read-back of " + keys[i].second + " returned '" + value +
                    "', committed '" + expected[i] + "'");
      }
    }
    Status s = tc->Commit(*txn);
    if (!s.ok()) errors->Add("read-back commit: " + s.ToString());
  }
}

std::string Num(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Key-value workloads on the direct transport (point_rw, durable_ingest)
// ---------------------------------------------------------------------------

struct KvShape {
  uint32_t rows_per_table = 0;
  /// Loaded ids are i * key_stride; the gaps take fresh inserts.
  uint32_t key_stride = 1;
  uint32_t force_delay_us = 0;
  int replicas_per_dc = 0;
  /// Checkpoint (page-flush pass) cadence during the run (0 = none).
  uint32_t checkpoint_ms = 0;
};

struct KvClient {
  explicit KvClient(uint64_t seed) : rng(seed) {}
  untx::Random rng;
  uint64_t seq = 0;
  uint64_t version = 0;
  /// Slot -> the value this client last committed there.
  std::unordered_map<uint64_t, std::string> committed;
  /// Ids this client inserted, per table (sorted: scans are checked
  /// against them).
  std::set<uint32_t> inserted[2];
  uint64_t inserts = 0;
  uint64_t user_bytes = 0;
  uint64_t scans = 0;
  uint64_t write_commits = 0;
};

class KvWorkload : public Workload {
 public:
  KvWorkload(KvShape shape, uint64_t seed, int clients, bool traced)
      : shape_(shape), seed_(seed), clients_(clients), traced_(traced) {}
  ~KvWorkload() override { Teardown(); }

  Status Setup() override {
    Teardown();
    untx::ClusterOptions options;
    options.num_dcs = 2;
    untx::TcSpec spec;
    spec.options.tc_id = 1;
    spec.options.log.force_delay_us = shape_.force_delay_us;
    options.tcs.push_back(spec);
    options.replicas_per_dc = shape_.replicas_per_dc;
    if (traced_) options.binding_factory = MakeTracingTransportFactory();
    StatusOr<std::unique_ptr<Cluster>> cluster =
        Cluster::Open(std::move(options));
    if (!cluster.ok()) return cluster.status();
    cluster_ = std::move(cluster).ValueOrDie();
    tc_ = cluster_->tc(0);
    for (TableId table : kTables) {
      Status s = tc_->CreateTable(table);
      if (!s.ok()) return s;
    }
    clients_state_.clear();
    for (int c = 0; c < clients_; ++c) {
      clients_state_.push_back(std::make_unique<KvClient>(
          seed_ * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1));
    }
    Status s = Load();
    if (!s.ok()) return s;
    return WaitReplicasCaughtUp();
  }

  void Teardown() override {
    StopBackground();
    cluster_.reset();
    tc_ = nullptr;
  }

  void StartBackground() override {
    if (shape_.checkpoint_ms > 0) {
      checkpointer_.Start(
          std::chrono::milliseconds(shape_.checkpoint_ms), [this] {
            std::lock_guard<std::mutex> guard(quiet_mu_);
            const int64_t start = NowNs();
            Checkpoint();
            if (measuring_) {
              checkpoint_ms_.push_back((NowNs() - start) / 1e6);
            }
          });
    }
    if (shape_.replicas_per_dc > 0) {
      lag_sampler_.Start(std::chrono::milliseconds(10), [this] {
        for (int d = 0; d < cluster_->num_dcs(); ++d) {
          const uint64_t lag = cluster_->ReplicaLag(d);
          if (measuring_ && lag > max_lag_) max_lag_ = lag;
        }
      });
    }
  }

  void StopBackground() override {
    checkpointer_.Stop();
    lag_sampler_.Stop();
  }

  void BeginMeasuring() override {
    std::lock_guard<std::mutex> guard(quiet_mu_);
    for (auto& cl : clients_state_) {
      cl->inserts = cl->user_bytes = cl->scans = cl->write_commits = 0;
    }
    checkpoint_ms_.clear();
    max_lag_ = 0;
    measuring_ = true;
  }

  Counters Snapshot() override {
    std::lock_guard<std::mutex> guard(quiet_mu_);
    return Counters::Snapshot(cluster_.get());
  }

  void Verify(std::vector<std::string>* errors) override {
    measuring_ = false;
    if (shape_.replicas_per_dc > 0) {
      // Durability: every committed write must survive losing each
      // primary and being served by its promoted standby.
      for (int d = 0; d < cluster_->num_dcs(); ++d) {
        const int64_t start = NowNs();
        Status s = cluster_->FailoverDc(d);
        failover_ms_.push_back((NowNs() - start) / 1e6);
        if (!s.ok()) errors_.Add("failover of dc " + Num(d) + ": " +
                                 s.ToString());
      }
    }
    ParallelFor(clients_, [this](int c) {
      std::vector<std::pair<TableId, std::string>> keys;
      std::vector<std::string> values;
      for (const auto& [slot, value] : clients_state_[c]->committed) {
        keys.emplace_back(kTables[slot >> 32],
                          Key(static_cast<uint32_t>(slot)));
        values.push_back(value);
      }
      ReadBack(tc_, keys, values, &errors_);
    });
    errors_.AppendTo(errors);
  }

  WorkloadTotals totals() const override {
    WorkloadTotals t;
    for (const auto& cl : clients_state_) {
      t.inserts += cl->inserts;
      t.user_bytes_written += cl->user_bytes;
      t.scans += cl->scans;
      t.write_commits += cl->write_commits;
    }
    t.checkpoint_ms = checkpoint_ms_;
    t.max_replica_lag = max_lag_;
    t.failover_ms = failover_ms_;
    return t;
  }

 protected:
  /// The value `id` of table `ti` holds as far as client `cl` knows: its
  /// own last commit, or the loader's.
  std::string Expected(const KvClient& cl, int ti, uint32_t id) const {
    auto it = cl.committed.find(Slot(ti, id));
    return it != cl.committed.end() ? it->second : Value(id, 0, 0);
  }

  Outcome Abandon(TxnId txn, const Status& s, const char* what) {
    Timed(kSpanTcAbort, [&] { return tc_->Abort(txn); });
    return Classify(s, what, &errors_);
  }

  Conditions BaseConditions() const {
    Conditions c;
    c.emplace("transport", "direct");
    c.emplace("tcs", "1");
    c.emplace("dcs", "2");
    c.emplace("replicas_per_dc", Num(shape_.replicas_per_dc));
    c.emplace("tables", "2");
    c.emplace("rows_per_table_loaded", Num(shape_.rows_per_table));
    c.emplace("key_bytes", "10");
    c.emplace("value_bytes", "24");
    c.emplace("pool_pages_per_dc", Num(untx::BufferPoolOptions().capacity));
    c.emplace("page_bytes", Num(untx::kDefaultPageSize));
    if (cluster_ != nullptr) {
      c.emplace("loaded_pages_per_dc",
                Num(loaded_pages_[0]) + "," + Num(loaded_pages_[1]));
    }
    return c;
  }

  const KvShape shape_;
  const uint64_t seed_;
  const int clients_;
  const bool traced_;
  std::unique_ptr<Cluster> cluster_;
  TransactionComponent* tc_ = nullptr;
  std::vector<std::unique_ptr<KvClient>> clients_state_;
  ErrorLog errors_;

 private:
  /// Loads both tables in pipelined transactions of 256 inserts, taking
  /// the key space as 32 ascending streams served round-robin, and
  /// flushing the pools every 5,000 rows so they can evict clean pages.
  /// One ascending stream would make the standbys' memory
  /// grow with the square of the rows (a standby never flushes, so the
  /// right-edge leaf's abLSN in-set holds every insert and each split
  /// copies it); fully scattered inserts would dirty more pages between
  /// checkpoints than the pool holds. One loader thread: inserts racing
  /// a root split can land in the wrong subtree (README.md, "Known
  /// kernel defects"), and loading splits the root.
  Status Load() {
    constexpr uint32_t kStreams = 32;
    constexpr uint32_t kBatch = 256;
    constexpr uint64_t kCheckpointRows = 5'000;
    const uint32_t rows = shape_.rows_per_table;
    uint64_t loaded = 0;
    for (TableId table : kTables) {
      for (uint32_t off = 0; off < rows / kStreams + 1; off += kBatch) {
        for (uint32_t k = 0; k < kStreams; ++k) {
          const uint32_t lo = rows * k / kStreams + off;
          const uint32_t hi = std::min(rows * (k + 1) / kStreams, lo + kBatch);
          if (lo >= hi) continue;
          StatusOr<TxnId> txn = tc_->Begin();
          if (!txn.ok()) return txn.status();
          for (uint32_t j = lo; j < hi; ++j) {
            const uint32_t id = j * shape_.key_stride;
            tc_->SubmitInsert(*txn, table, Key(id), Value(id, 0, 0));
          }
          Status s = tc_->AwaitAll(*txn);
          if (s.ok()) s = tc_->Commit(*txn);
          if (!s.ok()) {
            tc_->Abort(*txn);
            return s;
          }
          if ((loaded + hi - lo) / kCheckpointRows !=
              loaded / kCheckpointRows) {
            Checkpoint();
          }
          loaded += hi - lo;
        }
      }
    }
    Checkpoint();
    for (int d = 0; d < 2; ++d) {
      loaded_pages_[d] = cluster_->dc(d)->store()->allocated_high_water();
    }
    return Status::OK();
  }

  /// The benchmark's checkpoint: a flush pass over both primary pools
  /// (every dirty page the WAL and causality gates allow), so the pools
  /// can evict clean pages. Not TakeCheckpoint: its log truncation can
  /// pull the log's base past a force that is sleeping out its
  /// force_delay_us, which then indexes before the log and crashes
  /// (README.md, "Known kernel defects"). The TC log is therefore never
  /// truncated here.
  void Checkpoint() {
    for (int d = 0; d < cluster_->num_dcs(); ++d) {
      cluster_->dc(d)->pool()->FlushAllEligible();
    }
  }

  Status WaitReplicasCaughtUp() {
    if (shape_.replicas_per_dc == 0) return Status::OK();
    const int64_t deadline = NowNs() + 60'000'000'000;
    for (int d = 0; d < cluster_->num_dcs(); ++d) {
      while (cluster_->ReplicaLag(d) > 0) {
        if (NowNs() > deadline) {
          return Status::TimedOut("standby of dc " + Num(d) +
                                  " did not catch up after the load");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  }

  /// Held by the checkpoint driver while it runs, and by Snapshot and
  /// BeginMeasuring, so counters are read between checkpoints.
  std::mutex quiet_mu_;
  untx::RepeatingThread checkpointer_;
  untx::RepeatingThread lag_sampler_;
  std::atomic<bool> measuring_{false};
  std::vector<double> checkpoint_ms_;
  std::atomic<uint64_t> max_lag_{0};
  std::vector<double> failover_ms_;
  size_t loaded_pages_[2] = {0, 0};
};

/// point_rw: 4 uniform point reads per transaction, every second one
/// also updating a key the client owns (id % clients == client). The
/// data fits the pool, forces are free, nothing checkpoints: the time is
/// the TC code path and its shared state.
class PointRw final : public KvWorkload {
 public:
  static KvShape Shape() {
    KvShape s;
    s.rows_per_table = 50'000;
    return s;
  }
  PointRw(uint64_t seed, int clients, bool traced)
      : KvWorkload(Shape(), seed, clients, traced) {}

  Outcome Step(int client, Sample* sample) override {
    KvClient& cl = *clients_state_[client];
    const bool write = (cl.seq++ % 2) == 1;
    sample->writes = write;
    StatusOr<TxnId> txn = Timed(kSpanTcBegin, [&] { return tc_->Begin(); });
    if (!txn.ok()) return Classify(txn.status(), "begin", &errors_);
    for (int r = 0; r < 4; ++r) {
      const int ti = static_cast<int>(cl.rng.Uniform(2));
      const uint32_t id =
          static_cast<uint32_t>(cl.rng.Uniform(shape_.rows_per_table));
      std::string value;
      Status s = Timed(kSpanTcRead, [&] {
        return tc_->Read(*txn, kTables[ti], Key(id), &value);
      });
      if (!s.ok()) return Abandon(*txn, s, "read");
      const bool own = id % clients_ == static_cast<uint32_t>(client);
      if (own ? value != Expected(cl, ti, id) : !ValueNamesKey(value, id)) {
        errors_.Add("read of " + Key(id) + " returned '" + value + "'");
        Timed(kSpanTcAbort, [&] { return tc_->Abort(*txn); });
        return Outcome::kWrong;
      }
    }
    int ti = 0;
    uint32_t id = 0;
    std::string value;
    if (write) {
      ti = static_cast<int>(cl.rng.Uniform(2));
      const uint32_t owned = shape_.rows_per_table / clients_;
      id = static_cast<uint32_t>(cl.rng.Uniform(owned)) * clients_ + client;
      value = Value(id, client + 1, ++cl.version);
      Status s = Timed(kSpanTcUpdate, [&] {
        return tc_->Update(*txn, kTables[ti], Key(id), value);
      });
      if (!s.ok()) return Abandon(*txn, s, "update");
    }
    Status s = Timed(kSpanTcCommit, [&] { return tc_->Commit(*txn); });
    if (!s.ok()) return Abandon(*txn, s, "commit");
    if (write) {
      cl.committed[Slot(ti, id)] = value;
      cl.user_bytes += 10 + value.size();
      ++cl.write_commits;
    }
    return Outcome::kOk;
  }

  Conditions conditions() const override {
    Conditions c = BaseConditions();
    c.emplace("mix", "4 uniform point reads per txn; every 2nd txn also "
                     "updates 1 client-owned key");
    c.emplace("flush_policy", "TC log forced at each write commit, "
                              "force_delay_us=0; no checkpoints in the run "
                              "(a page-flush pass every 5k rows while "
                              "loading)");
    return c;
  }
};

/// durable_ingest: 3 transactions in 4 insert a fresh key into a gap of
/// the loaded key space and update a loaded key; the 4th is a 20-row
/// serializable scan. Each client works in its own contiguous quarter of
/// the key space, so the durable write path, not lock contention, sets
/// the pace: 100 us log forces, redo-log shipping to a hot standby per
/// DC, splits, checkpoints every 250 ms and a pool smaller than the data.
class DurableIngest final : public KvWorkload {
 public:
  static KvShape Shape() {
    KvShape s;
    s.rows_per_table = 200'000;
    s.key_stride = 1024;
    s.force_delay_us = 100;
    s.replicas_per_dc = 1;
    s.checkpoint_ms = 250;
    return s;
  }
  DurableIngest(uint64_t seed, int clients, bool traced)
      : KvWorkload(Shape(), seed, clients, traced) {}

  Outcome Step(int client, Sample* sample) override {
    KvClient& cl = *clients_state_[client];
    const bool scan = (cl.seq++ % 4) == 3;
    sample->writes = !scan;
    const uint32_t lo = shape_.rows_per_table * client / clients_;
    const uint32_t hi = shape_.rows_per_table * (client + 1) / clients_;
    StatusOr<TxnId> txn = Timed(kSpanTcBegin, [&] { return tc_->Begin(); });
    if (!txn.ok()) return Classify(txn.status(), "begin", &errors_);

    if (scan) {
      const int ti = static_cast<int>(cl.rng.Uniform(2));
      const uint32_t from =
          (lo + static_cast<uint32_t>(cl.rng.Uniform(hi - lo))) *
          shape_.key_stride;
      const uint32_t to = hi * shape_.key_stride;
      std::vector<std::pair<std::string, std::string>> rows;
      Status s = Timed(kSpanTcScan, [&] {
        return tc_->Scan(*txn, kTables[ti], Key(from), Key(to), kScanRows,
                         &rows);
      });
      if (!s.ok()) return Abandon(*txn, s, "scan");
      s = Timed(kSpanTcCommit, [&] { return tc_->Commit(*txn); });
      if (!s.ok()) return Abandon(*txn, s, "scan commit");
      ++cl.scans;
      return CheckScan(cl, ti, from, to, rows) ? Outcome::kOk
                                               : Outcome::kWrong;
    }

    // A fresh id in a gap of this client's quarter (never a loaded id).
    // The gaps are drawn from a window of kInsertWindow loaded keys that
    // slides one key every 4 requests: the loaded leaves are half full,
    // and uniform gaps would leave them so for the whole run, while an
    // ingest front fills leaves until they split.
    const int ins_ti = static_cast<int>(cl.rng.Uniform(2));
    uint32_t ins_id = 0;
    do {
      const uint32_t base = lo + static_cast<uint32_t>(
                                     (cl.seq / 4 + cl.rng.Uniform(kInsertWindow)) %
                                     (hi - lo));
      ins_id = base * shape_.key_stride + 1 +
               static_cast<uint32_t>(cl.rng.Uniform(shape_.key_stride - 1));
    } while (cl.inserted[ins_ti].count(ins_id) != 0);
    const std::string ins_value = Value(ins_id, client + 1, ++cl.version);
    Status s = Timed(kSpanTcInsert, [&] {
      return tc_->Insert(*txn, kTables[ins_ti], Key(ins_id), ins_value);
    });
    if (!s.ok()) return Abandon(*txn, s, "insert");

    const int upd_ti = static_cast<int>(cl.rng.Uniform(2));
    const uint32_t upd_id =
        (lo + static_cast<uint32_t>(cl.rng.Uniform(hi - lo))) *
        shape_.key_stride;
    const std::string upd_value = Value(upd_id, client + 1, ++cl.version);
    s = Timed(kSpanTcUpdate, [&] {
      return tc_->Update(*txn, kTables[upd_ti], Key(upd_id), upd_value);
    });
    if (!s.ok()) return Abandon(*txn, s, "update");
    s = Timed(kSpanTcCommit, [&] { return tc_->Commit(*txn); });
    if (!s.ok()) return Abandon(*txn, s, "commit");

    cl.inserted[ins_ti].insert(ins_id);
    cl.committed[Slot(ins_ti, ins_id)] = ins_value;
    cl.committed[Slot(upd_ti, upd_id)] = upd_value;
    ++cl.inserts;
    ++cl.write_commits;
    cl.user_bytes += 2 * (10 + 24);
    return Outcome::kOk;
  }

  Conditions conditions() const override {
    Conditions c = BaseConditions();
    c.emplace("mix", "3 of 4 txns: 1 insert into a gap (a 64-key window "
                     "sliding through the client's quarter) + 1 uniform "
                     "update; 1 of 4: 20-row serializable scan; each client "
                     "in its own quarter of the key space");
    c.emplace("flush_policy",
              "TC log forced at each write commit, force_delay_us=100; "
              "DC redo log forced before each reply and shipped to 1 "
              "standby; a page-flush pass over both primaries every "
              "250 ms (and every 5k rows while loading); TakeCheckpoint "
              "is not used");
    c.emplace("verify", "failover of each DC to its standby, then "
                        "read-back of every committed key");
    return c;
  }

 private:
  static constexpr uint32_t kScanRows = 20;
  static constexpr uint32_t kInsertWindow = 64;

  /// The scan must return exactly the first 20 keys at or after `from`
  /// in the client's quarter — loaded ids plus the client's own inserts
  /// — each with the value the client last committed.
  bool CheckScan(const KvClient& cl, int ti, uint32_t from, uint32_t to,
                 const std::vector<std::pair<std::string, std::string>>&
                     rows) {
    std::vector<uint32_t> ids;
    uint32_t next_loaded = from;
    auto next_inserted = cl.inserted[ti].lower_bound(from);
    while (ids.size() < kScanRows) {
      const uint32_t a = next_loaded < to ? next_loaded : UINT32_MAX;
      const uint32_t b =
          next_inserted != cl.inserted[ti].end() && *next_inserted < to
              ? *next_inserted
              : UINT32_MAX;
      if (a == UINT32_MAX && b == UINT32_MAX) break;
      if (a < b) {
        ids.push_back(a);
        next_loaded += shape_.key_stride;
      } else {
        ids.push_back(b);
        ++next_inserted;
      }
    }
    bool ok = rows.size() == ids.size();
    for (size_t i = 0; ok && i < ids.size(); ++i) {
      ok = rows[i].first == Key(ids[i]) &&
           rows[i].second == Expected(cl, ti, ids[i]);
    }
    if (!ok) {
      errors_.Add("scan from " + Key(from) + " returned " +
                  Num(rows.size()) + " rows not matching the " +
                  Num(ids.size()) + " committed ones");
    }
    return ok;
  }
};

// ---------------------------------------------------------------------------
// movie_socket: the Figure-2 movie site over loopback TCP
// ---------------------------------------------------------------------------

constexpr uint32_t kUsers = 2000;
constexpr uint32_t kMovies = 200;
constexpr int kSeedReviewsPerUser = 3;
constexpr int kListingMovies = 10;

std::string ReviewText(uint32_t uid, uint32_t mid, uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "rv.%05u.%05u.%010llu", uid, mid,
                static_cast<unsigned long long>(version));
  return buf;
}

std::string Profile(uint32_t uid, uint64_t version) {
  return "profile." + Num(uid) + "." + Num(version);
}

/// A review row names its (movie, user) in both key and text.
bool ReviewRowMatches(const std::string& key, const std::string& text,
                      uint32_t want_mid) {
  unsigned mid = 0, uid = 0;
  if (std::sscanf(key.c_str(), "m%8u:u%8u", &mid, &uid) != 2) return false;
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "rv.%05u.%05u.", uid, mid);
  return mid == want_mid && key == untx::cloud::ReviewKey(mid, uid) &&
         text.compare(0, std::strlen(prefix), prefix) == 0;
}

struct MovieUser {
  std::string profile;
  std::map<uint32_t, std::string> reviews;  // mid -> text
};

struct MovieClient {
  explicit MovieClient(uint64_t seed) : rng(seed) {}
  untx::Random rng;
  uint64_t version = 0;
  /// Users uid with uid % clients == client, indexed by uid / clients.
  std::vector<MovieUser> users;
  uint64_t scans = 0;
  uint64_t write_commits = 0;
  uint64_t user_bytes = 0;
};

class MovieSocket final : public Workload {
 public:
  MovieSocket(uint64_t seed, int clients) : seed_(seed), clients_(clients) {}
  ~MovieSocket() override { Teardown(); }

  Status Setup() override {
    Teardown();
    untx::cloud::MovieSiteConfig config;
    config.num_users = kUsers;
    config.num_movies = kMovies;
    config.versioning = true;
    config.transport = untx::TransportKind::kSocket;
    StatusOr<std::unique_ptr<untx::cloud::MovieSite>> site =
        untx::cloud::MovieSite::Open(config);
    if (!site.ok()) return site.status();
    site_ = std::move(site).ValueOrDie();
    Status s = site_->Setup();
    if (!s.ok()) return s;
    clients_state_.clear();
    for (int c = 0; c < clients_; ++c) {
      auto cl = std::make_unique<MovieClient>(
          seed_ * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(c) + 1);
      for (uint32_t uid = c; uid < kUsers; uid += clients_) {
        cl->users.push_back({"profile-" + Num(uid), {}});
      }
      clients_state_.push_back(std::move(cl));
    }
    // Seed 3 reviews per user on distinct movies, from one thread (the
    // tables grow from empty, so their roots split while seeding). These
    // are the only (user, movie) pairs W2 ever writes: the data has its
    // full size before the warm-up.
    for (int c = 0; c < clients_; ++c) {
      MovieClient& cl = *clients_state_[c];
      for (size_t u = 0; u < cl.users.size(); ++u) {
        const uint32_t uid = static_cast<uint32_t>(u) * clients_ + c;
        while (cl.users[u].reviews.size() < kSeedReviewsPerUser) {
          const uint32_t mid =
              static_cast<uint32_t>(cl.rng.Uniform(kMovies));
          if (cl.users[u].reviews.count(mid) != 0) continue;
          const std::string text = ReviewText(uid, mid, ++cl.version);
          s = site_->W2AddReview(uid, mid, text);
          if (!s.ok()) return s;
          cl.users[u].reviews[mid] = text;
        }
      }
    }
    for (int d = 0; d < 3; ++d) {
      loaded_pages_[d] =
          site_->cluster()->dc(d)->store()->allocated_high_water();
    }
    return Status::OK();
  }

  void Teardown() override { site_.reset(); }

  void BeginMeasuring() override {
    for (auto& cl : clients_state_) {
      cl->scans = cl->write_commits = cl->user_bytes = 0;
    }
  }

  Counters Snapshot() override {
    return Counters::Snapshot(site_->cluster());
  }

  Outcome Step(int client, Sample* sample) override {
    MovieClient& cl = *clients_state_[client];
    const uint64_t pick = cl.rng.Uniform(100);
    const int w = pick < 30 ? 1 : pick < 50 ? 2 : pick < 70 ? 3
                : pick < 85 ? 4 : 5;
    sample->writes = w == 2 || w == 3;
    ScopedSpan span(static_cast<SpanName>(kSpanCloudW1 + w - 1));
    const size_t u = cl.rng.Uniform(cl.users.size());
    const uint32_t uid = static_cast<uint32_t>(u) * clients_ + client;
    MovieUser& user = cl.users[u];
    switch (w) {
      case 1: {
        const uint32_t mid = static_cast<uint32_t>(cl.rng.Uniform(kMovies));
        std::vector<std::pair<std::string, std::string>> rows;
        Status s = site_->W1GetMovieReviews(mid, &rows);
        if (!s.ok()) return Classify(s, "W1", &errors_);
        ++cl.scans;
        for (const auto& [key, text] : rows) {
          if (!ReviewRowMatches(key, text, mid)) {
            errors_.Add("W1 of movie " + Num(mid) + " returned " + key +
                        " = '" + text + "'");
            return Outcome::kWrong;
          }
        }
        return Outcome::kOk;
      }
      case 2: {
        // Re-review one of the user's own movies: an upsert of a row that
        // exists, so the tables keep their seeded size through the run
        // and W1/W4 scan the same number of rows at any throughput.
        auto it = user.reviews.begin();
        std::advance(it, cl.rng.Uniform(user.reviews.size()));
        const uint32_t mid = it->first;
        const std::string text = ReviewText(uid, mid, ++cl.version);
        Status s = site_->W2AddReview(uid, mid, text);
        if (!s.ok()) return Classify(s, "W2", &errors_);
        it->second = text;
        ++cl.write_commits;
        cl.user_bytes += 2 * (19 + text.size());
        return Outcome::kOk;
      }
      case 3: {
        const std::string profile = Profile(uid, ++cl.version);
        Status s = site_->W3UpdateProfile(uid, profile);
        if (!s.ok()) return Classify(s, "W3", &errors_);
        user.profile = profile;
        ++cl.write_commits;
        cl.user_bytes += 9 + profile.size();
        return Outcome::kOk;
      }
      case 4: {
        std::vector<std::pair<std::string, std::string>> rows;
        Status s = site_->W4GetUserReviews(uid, &rows);
        if (!s.ok()) return Classify(s, "W4", &errors_);
        ++cl.scans;
        // The client owns this user: the result is exactly its history.
        bool ok = rows.size() == user.reviews.size();
        auto it = user.reviews.begin();
        for (size_t i = 0; ok && i < rows.size(); ++i, ++it) {
          ok = rows[i].first == untx::cloud::MyReviewKey(uid, it->first) &&
               rows[i].second == it->second;
        }
        if (!ok) {
          errors_.Add("W4 of user " + Num(uid) + " returned " +
                      Num(rows.size()) + " rows, committed " +
                      Num(user.reviews.size()));
          return Outcome::kWrong;
        }
        return Outcome::kOk;
      }
      default: {
        std::vector<uint32_t> mids;
        while (mids.size() < kListingMovies) {
          const uint32_t mid =
              static_cast<uint32_t>(cl.rng.Uniform(kMovies));
          if (std::find(mids.begin(), mids.end(), mid) == mids.end()) {
            mids.push_back(mid);
          }
        }
        std::vector<std::string> titles;
        Status s = site_->W5MovieListing(mids, &titles);
        if (!s.ok()) return Classify(s, "W5", &errors_);
        for (size_t i = 0; i < mids.size(); ++i) {
          if (titles[i] != "title-" + Num(mids[i])) {
            errors_.Add("W5 title of movie " + Num(mids[i]) + " is '" +
                        titles[i] + "'");
            return Outcome::kWrong;
          }
        }
        return Outcome::kOk;
      }
    }
  }

  void Verify(std::vector<std::string>* errors) override {
    Status s = site_->VerifyConsistency();
    if (!s.ok()) errors_.Add("Reviews != MyReviews: " + s.ToString());
    ParallelFor(clients_, [this](int c) {
      const MovieClient& cl = *clients_state_[c];
      for (size_t u = 0; u < cl.users.size(); ++u) {
        const uint32_t uid = static_cast<uint32_t>(u) * clients_ + c;
        std::vector<std::pair<TableId, std::string>> keys;
        std::vector<std::string> values;
        keys.emplace_back(untx::cloud::kUsersTable,
                          untx::cloud::UserKey(uid));
        values.push_back(cl.users[u].profile);
        for (const auto& [mid, text] : cl.users[u].reviews) {
          keys.emplace_back(untx::cloud::kReviewsTable,
                            untx::cloud::ReviewKey(mid, uid));
          values.push_back(text);
          keys.emplace_back(untx::cloud::kMyReviewsTable,
                            untx::cloud::MyReviewKey(uid, mid));
          values.push_back(text);
        }
        ReadBack(site_->OwnerTc(uid), keys, values, &errors_);
      }
    });
    errors_.AppendTo(errors);
  }

  WorkloadTotals totals() const override {
    WorkloadTotals t;
    for (const auto& cl : clients_state_) {
      t.scans += cl->scans;
      t.write_commits += cl->write_commits;
      t.user_bytes_written += cl->user_bytes;
    }
    return t;
  }

  Conditions conditions() const override {
    Conditions c;
    c.emplace("transport", "socket (loopback TCP)");
    c.emplace("tcs", "2");
    c.emplace("dcs", "3");
    c.emplace("versioning", "on");
    c.emplace("users", Num(kUsers));
    c.emplace("movies", Num(kMovies));
    c.emplace("seeded_reviews_per_user", Num(kSeedReviewsPerUser));
    c.emplace("mix", "W1 30%, W2 20% (re-review of one of the user's 3 "
                     "seeded movies), W3 20%, W4 15%, W5 15% (10 movies); "
                     "each client owns users uid % clients == client");
    c.emplace("pool_pages_per_dc", Num(untx::BufferPoolOptions().capacity));
    c.emplace("page_bytes", Num(untx::kDefaultPageSize));
    c.emplace("loaded_pages_per_dc", Num(loaded_pages_[0]) + "," +
                                         Num(loaded_pages_[1]) + "," +
                                         Num(loaded_pages_[2]));
    c.emplace("flush_policy", "TC logs forced at each write commit, "
                              "force_delay_us=0; no checkpoints");
    c.emplace("verify", "VerifyConsistency (Reviews = MyReviews), then "
                        "read-back of every committed profile and review");
    return c;
  }

 private:
  const uint64_t seed_;
  const int clients_;
  std::unique_ptr<untx::cloud::MovieSite> site_;
  std::vector<std::unique_ptr<MovieClient>> clients_state_;
  ErrorLog errors_;
  size_t loaded_pages_[3] = {0, 0, 0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, int clients,
                                       bool traced) {
  if (name == "point_rw") {
    return std::make_unique<PointRw>(seed, clients, traced);
  }
  if (name == "durable_ingest") {
    return std::make_unique<DurableIngest>(seed, clients, traced);
  }
  if (name == "movie_socket") {
    return std::make_unique<MovieSocket>(seed, clients);
  }
  return nullptr;
}

}  // namespace perfbench
