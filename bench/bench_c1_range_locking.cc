// Experiment C1 (§3.1): the two range-locking protocols.
//
//   fetch-ahead  — probe, lock returned keys + fencepost, validated read;
//                  fine-grained, more lock calls + probe round trips.
//   partition(N) — static key-space partition locks; "should reduce
//                  locking overhead since fewer locks are needed", but
//                  "gives up some concurrency".
//
// Measured: scan cost and insert cost per protocol, lock acquisitions
// and probe round-trips per operation, and writer throughput under a
// concurrent scanner (the concurrency give-up).
#include <algorithm>
#include <thread>

#include "bench_util.h"

namespace untx {
namespace bench {
namespace {

constexpr TableId kTable = 1;
constexpr int kRows = 4000;

std::unique_ptr<UnbundledDb> MakeDb(RangeLockProtocol protocol,
                                    int partitions) {
  UnbundledDbOptions options = DefaultDbOptions();
  options.tc.range_protocol = protocol;
  options.tc.insert_phantom_protection =
      protocol == RangeLockProtocol::kFetchAhead;
  for (int i = 1; i < partitions; ++i) {
    options.tc.partitions.boundaries.push_back(Key(kRows * i / partitions));
  }
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  db->CreateTable(kTable);
  Load(db.get(), kTable, kRows);
  return db;
}

// arg0: 0 = fetch-ahead, N>0 = partition protocol with N ranges.
void BM_Scan100(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto db = MakeDb(mode == 0 ? RangeLockProtocol::kFetchAhead
                             : RangeLockProtocol::kPartition,
                   mode == 0 ? 0 : mode);
  const uint64_t locks0 = db->tc()->lock_stats().acquisitions;
  const uint64_t probes0 = db->tc()->stats().probes.load();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    std::vector<std::pair<std::string, std::string>> rows;
    const int start = (i * 131) % (kRows - 120);
    txn.Scan(kTable, Key(start), Key(start + 100), 0, &rows);
    txn.Commit();
    benchmark::DoNotOptimize(rows);
    ++i;
  }
  state.counters["locks/op"] = benchmark::Counter(
      static_cast<double>(db->tc()->lock_stats().acquisitions - locks0),
      benchmark::Counter::kAvgIterations);
  state.counters["probes/op"] = benchmark::Counter(
      static_cast<double>(db->tc()->stats().probes.load() - probes0),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Scan100)->Arg(0)->Arg(1)->Arg(16)->Arg(256);

void BM_Insert(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto db = MakeDb(mode == 0 ? RangeLockProtocol::kFetchAhead
                             : RangeLockProtocol::kPartition,
                   mode == 0 ? 0 : mode);
  const uint64_t locks0 = db->tc()->lock_stats().acquisitions;
  int i = kRows;
  for (auto _ : state) {
    Txn txn(db->tc());
    txn.Insert(kTable, Key(i++), "inserted");
    txn.Commit();
  }
  state.counters["locks/op"] = benchmark::Counter(
      static_cast<double>(db->tc()->lock_stats().acquisitions - locks0),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Insert)->Arg(0)->Arg(1)->Arg(16)->Arg(256);

// The concurrency cost of coarse locks: writer throughput while a
// scanner repeatedly scans a disjoint range. With one table lock the
// writer serializes behind the scanner; with fetch-ahead or many
// partitions it does not.
void BM_WriterUnderScanner(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto db = MakeDb(mode == 0 ? RangeLockProtocol::kFetchAhead
                             : RangeLockProtocol::kPartition,
                   mode == 0 ? 0 : mode);
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load()) {
      Txn txn(db->tc());
      std::vector<std::pair<std::string, std::string>> rows;
      txn.Scan(kTable, Key(0), Key(400), 0, &rows);
      txn.Commit();
    }
  });
  int i = 0;
  uint64_t failed = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    // Writes far from the scanned range.
    if (!txn.Update(kTable, Key(2000 + (i++ % 1500)), "w").ok()) ++failed;
    txn.Commit();
  }
  stop.store(true);
  scanner.join();
  state.counters["blocked_or_failed"] =
      benchmark::Counter(static_cast<double>(failed));
}
BENCHMARK(BM_WriterUnderScanner)
    ->Arg(0)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// ---- Scan-heavy arm over the channel transport (PR 3) -----------------------
//
// The unbundling cost is per MESSAGE (§5.1): a shared scan pays one
// kScanStream request per scan with chunked replies, and the fetch-ahead
// transactional scan rides one probe-mode stream. arg0 is always 1 (the
// streamed arm), which keeps the names of the recorded results; the
// per-window blocking arm (arg0 = 0) is on record in BENCH_PR8.json.

constexpr int kChannelRows = 1500;

std::unique_ptr<UnbundledDb> MakeChannelScanDb() {
  UnbundledDbOptions options = DefaultDbOptions();
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.min_delay_us = 50;
  options.channel.request_channel.max_delay_us = 150;
  options.channel.reply_channel.min_delay_us = 50;
  options.channel.reply_channel.max_delay_us = 150;
  options.tc.scan_stream_chunk = 64;
  options.tc.fetch_ahead_batch = 32;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  db->CreateTable(kTable);
  // Pipelined load: batched flushes, not one round trip per row.
  for (int base = 0; base < kChannelRows; base += 64) {
    Txn txn(db->tc());
    for (int i = base; i < std::min(kChannelRows, base + 64); ++i) {
      txn.InsertAsync(kTable, Key(i), "payload-0123456789");
    }
    txn.Flush();
    txn.Commit();
  }
  return db;
}

void BM_SharedScanChannel(benchmark::State& state) {
  auto db = MakeChannelScanDb();
  const uint64_t msgs0 = db->channel(0)->op_messages();
  const uint64_t scan_msgs0 = db->channel(0)->scan_messages();
  uint64_t rows_returned = 0;
  for (auto _ : state) {
    std::vector<std::pair<std::string, std::string>> rows;
    db->tc()->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows);
    rows_returned += rows.size();
  }
  state.counters["rows/op"] = benchmark::Counter(
      static_cast<double>(rows_returned), benchmark::Counter::kAvgIterations);
  // 1 scan request message per scan.
  state.counters["scan_req_msgs/op"] = benchmark::Counter(
      static_cast<double>((db->channel(0)->op_messages() - msgs0) +
                          (db->channel(0)->scan_messages() - scan_msgs0)),
      benchmark::Counter::kAvgIterations);
  state.counters["scan_restarts"] = static_cast<double>(
      db->tc()->stats().scan_restarts.load());
}
BENCHMARK(BM_SharedScanChannel)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TxnScanChannel(benchmark::State& state) {
  auto db = MakeChannelScanDb();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    std::vector<std::pair<std::string, std::string>> rows;
    const int start = (i * 131) % (kChannelRows - 450);
    txn.Scan(kTable, Key(start), Key(start + 400), 0, &rows);
    txn.Commit();
    benchmark::DoNotOptimize(rows);
    ++i;
  }
  state.counters["probes/op"] = benchmark::Counter(
      static_cast<double>(db->tc()->stats().probes.load()),
      benchmark::Counter::kAvgIterations);
  state.counters["prefetch_hits/op"] = benchmark::Counter(
      static_cast<double>(db->tc()->stats().scan_prefetch_hits.load()),
      benchmark::Counter::kAvgIterations);
  // PR 4: the streamed fetch-ahead fold sends NO operation messages —
  // probes and validated reads both ride the stream cursor.
  state.counters["op_msgs"] = static_cast<double>(
      db->channel(0)->op_messages());
  state.counters["credit_msgs"] = static_cast<double>(
      db->channel(0)->scan_credit_messages());
}
BENCHMARK(BM_TxnScanChannel)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Scan flow-control arm (PR 4) -------------------------------------------
//
// Eager push vs credited streams: the credit window bounds how many
// chunks the DC may run ahead of the TC cursor, so the reply channel's
// peak scan residency (max_queued_scan_bytes) stays at credit x chunk
// size instead of growing with the whole result. arg0: credit window in
// chunks (0 = eager push, the PR 3 behavior).

std::unique_ptr<UnbundledDb> MakeCreditScanDb(uint32_t credit) {
  UnbundledDbOptions options = DefaultDbOptions();
  options.transport = TransportKind::kChannel;
  // Latency makes channel residency visible: chunks sit in flight.
  options.channel.reply_channel.min_delay_us = 150;
  options.channel.reply_channel.max_delay_us = 300;
  options.tc.scan_stream_chunk = 64;
  options.tc.scan_credit_chunks = credit;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  db->CreateTable(kTable);
  for (int base = 0; base < kChannelRows; base += 64) {
    Txn txn(db->tc());
    for (int i = base; i < std::min(kChannelRows, base + 64); ++i) {
      txn.InsertAsync(kTable, Key(i), "payload-0123456789");
    }
    txn.Flush();
    txn.Commit();
  }
  return db;
}

void BM_SharedScanCreditWindow(benchmark::State& state) {
  const uint32_t credit = static_cast<uint32_t>(state.range(0));
  auto db = MakeCreditScanDb(credit);
  uint64_t rows_returned = 0;
  for (auto _ : state) {
    std::vector<std::pair<std::string, std::string>> rows;
    db->tc()->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows);
    rows_returned += rows.size();
  }
  state.counters["rows/op"] = benchmark::Counter(
      static_cast<double>(rows_returned), benchmark::Counter::kAvgIterations);
  state.counters["peak_queued_bytes"] = static_cast<double>(
      db->channel(0)->max_queued_scan_bytes());
  state.counters["credit_msgs/op"] = benchmark::Counter(
      static_cast<double>(db->channel(0)->scan_credit_messages()),
      benchmark::Counter::kAvgIterations);
  state.counters["dc_pauses"] = static_cast<double>(
      db->dc(0)->stats().scan_stream_pauses.load());
  state.counters["cursor_hint_hits"] = static_cast<double>(
      db->dc(0)->stats().scan_cursor_hint_hits.load());
}
BENCHMARK(BM_SharedScanCreditWindow)
    ->Arg(0)   // eager push
    ->Arg(2)   // tightest practical window
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace untx

BENCHMARK_MAIN();
