// perfbench: the closed-loop benchmark of the TC/DC kernel.
//
//   perfbench --workload <point_rw|durable_ingest|movie_socket>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//
// Sets the workload up three times (setup_s is the median), warms up for
// three seconds, then runs 4 closed-loop clients (never more than the host's
// cores) for --seconds and checks every result. --trace 0 prints the
// end-to-end metrics. --trace 1 first makes the same untraced run as a
// reference, then sets up a second deployment with the timing DC wrapper,
// records spans for --seconds and prints the per-layer metrics, with the
// traced run's throughput against the reference's as trace.overhead_frac.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kMaxClients = 4;
constexpr int kSetups = 3;
constexpr int64_t kWarmupNs = 3'000'000'000;
/// In the traced phase, every 8th request of a client is traced: enough
/// spans for every per-layer percentile, few enough to keep in memory.
constexpr uint64_t kTraceEvery = 8;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string Fmt(double v) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out + "\"";
}

double RssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty set.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p * v.size() + 0.999999);
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One timed closed-loop phase: every client thread issues requests back
/// to back until `duration_ns` has passed since the phase started.
struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// CPU time (user + system) of every thread of the process: clients,
  /// the components' daemons and, on movie_socket, the DC servers.
  double cpu_s = 0;
  std::vector<Sample> samples;
};

/// User + system CPU seconds the whole process has used so far.
double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// With `traced`, every kTraceEvery-th request of each client is
/// recorded, and threads the benchmark does not drive record throughout.
Phase RunPhase(Workload* w, int clients, int64_t duration_ns, bool traced) {
  SetTracing(traced);
  Phase phase;
  const double cpu_start = ProcessCpuSeconds();
  phase.start_ns = NowNs();
  phase.end_ns = phase.start_ns + duration_ns;
  const int64_t t1 = phase.end_ns;
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& out = per_client[c];
      uint64_t n = 0;
      for (int64_t now = NowNs(); now < t1; now = NowNs()) {
        Sample s;
        s.start_ns = now;
        SetRequestTraced(traced && n++ % kTraceEvery == 0);
        {
          ScopedSpan request(kSpanRequest);
          s.outcome = w->Step(c, &s);
        }
        s.latency_ns = NowNs() - s.start_ns;
        out.push_back(s);
      }
      SetRequestTraced(false);
    });
  }
  for (auto& t : threads) t.join();
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  SetTracing(false);
  for (auto& v : per_client) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  return phase;
}

/// Requests completed without failure per second of the phase.
double OkPerSecond(const Phase& phase) {
  const double ok = static_cast<double>(std::count_if(
      phase.samples.begin(), phase.samples.end(),
      [](const Sample& s) { return s.outcome == Outcome::kOk; }));
  return Ratio(ok, (phase.end_ns - phase.start_ns) / 1e9);
}

/// A metric as printed: name, unit, value, and how it was measured.
/// Only metrics `in_result` go into the result object; the others are
/// printed for people.
struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;
  bool in_result = true;
};

/// A latency percentile over the whole timed phase, with its sample
/// count and whether the sample supports it (ten samples beyond it).
Metric LatencyPercentile(const std::string& name,
                         const std::vector<double>& us, double p) {
  const size_t beyond =
      us.size() - std::min(us.size(), static_cast<size_t>(p * us.size()));
  const std::string note = "n=" + std::to_string(us.size()) +
                           (beyond < 10 ? " (fewer than 10 beyond it)" : "");
  return {name, "us", Percentile(us, p), note};
}

/// Every figure pools the whole timed phase. The result carries set-up
/// time and memory, CPU time per request and the share of requests that
/// did not fail. Throughput and latencies are printed but kept out of the
/// result: on a shared 4-vCPU host their run-to-run spread reached 30-60%
/// on movie_socket whenever the host was busy, past the largest bound a
/// result metric may have, while CPU time per request moved by a few
/// percent (README.md, "Steadiness").
std::vector<Metric> EndToEndMetrics(const Phase& phase,
                                    const std::vector<double>& setup_s,
                                    double setup_rss_mb, uint64_t failed) {
  std::vector<double> all, read, write;
  for (const Sample& s : phase.samples) {
    if (s.outcome != Outcome::kOk) continue;
    const double us = s.latency_ns / 1e3;
    all.push_back(us);
    (s.writes ? write : read).push_back(us);
  }
  const double seconds = (phase.end_ns - phase.start_ns) / 1e9;
  const uint64_t attempted = phase.samples.size();
  std::vector<Metric> out;
  out.push_back({"setup_s", "s", Median(setup_s),
                 "median of " + std::to_string(kSetups) + " set-ups"});
  out.push_back({"setup_rss_mb", "MB", setup_rss_mb,
                 "resident set after the first set-up's load"});
  out.push_back({"cpu_us_per_req", "us", Ratio(phase.cpu_s * 1e6, all.size()),
                 "CPU time of all threads over completed requests"});
  out.push_back({"ok_frac", "ratio", 1 - Ratio(failed, attempted),
                 "failed_frac=" + Fmt(Ratio(failed, attempted)) + " (" +
                     std::to_string(failed) + " of " +
                     std::to_string(attempted) + ")"});
  for (Metric m :
       {Metric{"req_per_s", "1/s", OkPerSecond(phase),
               "completed requests over " + Fmt(seconds) + " s"},
        LatencyPercentile("p50_us", all, 0.50),
        LatencyPercentile("p99_us", all, 0.99),
        LatencyPercentile("read_p50_us", read, 0.50),
        LatencyPercentile("read_p99_us", read, 0.99),
        LatencyPercentile("write_p50_us", write, 0.50),
        LatencyPercentile("write_p99_us", write, 0.99)}) {
    m.in_result = false;
    out.push_back(m);
  }
  return out;
}

void AddSpanPercentiles(std::vector<Metric>* out, const SpanSummary& spans,
                        SpanName span, const std::string& prefix) {
  const auto& d = spans.duration_us[span];
  const std::string note = "n=" + std::to_string(d.size()) + " spans";
  out->push_back({prefix + ".p50_us", "us", Percentile(d, 0.50), note});
  out->push_back({prefix + ".p99_us", "us", Percentile(d, 0.99), note});
}

std::vector<Metric> PerLayerMetrics(const Phase& phase, const Counters& d,
                                    const WorkloadTotals& t,
                                    const SpanSummary& spans,
                                    double reference_req_per_s) {
  const double req = static_cast<double>(phase.samples.size());
  const double commits = static_cast<double>(t.write_commits);
  std::vector<Metric> out;
  // tc
  const std::pair<SpanName, const char*> tc_calls[] = {
      {kSpanTcBegin, "tc.begin"},   {kSpanTcRead, "tc.read"},
      {kSpanTcUpdate, "tc.update"}, {kSpanTcInsert, "tc.insert"},
      {kSpanTcScan, "tc.scan"},     {kSpanTcCommit, "tc.commit"}};
  for (const auto& [span, name] : tc_calls) {
    AddSpanPercentiles(&out, spans, span, name);
  }
  const std::pair<SpanName, const char*> self_calls[] = {
      {kSpanTcRead, "tc.read"},
      {kSpanTcUpdate, "tc.update"},
      {kSpanTcCommit, "tc.commit"}};
  for (const auto& [span, name] : self_calls) {
    out.push_back({std::string(name) + ".self_p50_us", "us",
                   Percentile(spans.self_us[span], 0.50),
                   "call time minus DC child spans"});
  }
  out.push_back({"tc.lock_acq_per_req", "1/req",
                 Ratio(d.lock_acquisitions, req), ""});
  out.push_back(
      {"tc.lock_waits_per_req", "1/req", Ratio(d.lock_waits, req), ""});
  out.push_back({"tc.ops_sent_per_req", "1/req", Ratio(d.ops_sent, req), ""});
  out.push_back({"tc.resends", "count", static_cast<double>(d.resends), ""});
  out.push_back(
      {"tc.dup_replies", "count", static_cast<double>(d.dup_replies), ""});
  out.push_back(
      {"tc.deadlocks", "count", static_cast<double>(d.deadlocks), ""});
  out.push_back({"tc.probes_per_insert", "1/insert",
                 Ratio(d.probes, t.inserts), ""});
  // wal
  out.push_back({"wal.forces_per_commit", "1/commit",
                 Ratio(d.log_forces, commits), "per write commit"});
  out.push_back({"wal.bytes_per_commit", "B/commit",
                 Ratio(d.log_bytes, commits), "per write commit"});
  // dc
  const std::pair<SpanName, const char*> dc_calls[] = {
      {kSpanDcPerform, "dc.perform"},
      {kSpanDcBatch, "dc.batch"},
      {kSpanDcScanStream, "dc.scan_stream"},
      {kSpanDcControl, "dc.control"}};
  for (const auto& [span, name] : dc_calls) {
    AddSpanPercentiles(&out, spans, span, name);
  }
  out.push_back({"dc.ops_per_req", "1/req", Ratio(d.dc_ops, req), ""});
  out.push_back({"dc.reply_cache_hits", "count",
                 static_cast<double>(d.reply_cache_hits), ""});
  out.push_back({"dc.btree.splits_per_1k_inserts", "1/1k_inserts",
                 1000 * Ratio(d.btree_splits, t.inserts), ""});
  out.push_back(
      {"dc.pool.hit_frac", "ratio", Ratio(d.pool_hits, d.pool_fetches), ""});
  out.push_back({"dc.pool.evictions_per_req", "1/req",
                 Ratio(d.pool_evictions, req), ""});
  out.push_back({"dc.pool.overflows", "count",
                 static_cast<double>(d.pool_overflows), ""});
  out.push_back({"dc.pool.flushes_per_ckpt", "1/ckpt",
                 Ratio(d.pool_flushes, t.checkpoint_ms.size()), ""});
  out.push_back(
      {"storage.reads_per_req", "1/req", Ratio(d.store_reads, req), ""});
  out.push_back({"storage.page_bytes_per_user_byte", "B/B",
                 Ratio(static_cast<double>(d.store_writes) * d.page_size,
                       t.user_bytes_written),
                 "page bytes written per committed key+value byte"});
  const double ckpt_max =
      t.checkpoint_ms.empty()
          ? 0
          : *std::max_element(t.checkpoint_ms.begin(), t.checkpoint_ms.end());
  out.push_back({"ckpt.p50_ms", "ms", Median(t.checkpoint_ms), ""});
  out.push_back({"ckpt.max_ms", "ms", ckpt_max, ""});
  out.push_back({"ckpt.count", "count",
                 static_cast<double>(t.checkpoint_ms.size()), ""});
  out.push_back({"dc.redo.entries_per_commit", "1/commit",
                 Ratio(d.redo_entries, commits), "per write commit"});
  out.push_back({"dc.replica.max_lag", "entries",
                 static_cast<double>(t.max_replica_lag),
                 "sampled every 10 ms"});
  double failover_sum = 0;
  for (double ms : t.failover_ms) failover_sum += ms;
  out.push_back({"dc.failover_ms", "ms",
                 Ratio(failover_sum, t.failover_ms.size()),
                 "mean FailoverDc time over the DCs"});
  // wire
  out.push_back({"wire.op_msgs_per_req", "1/req",
                 Ratio(d.op_messages, req), ""});
  out.push_back({"wire.ops_per_op_msg", "1/msg",
                 Ratio(d.ops_carried, d.op_messages), ""});
  out.push_back({"wire.scan_msgs_per_scan", "1/scan",
                 Ratio(d.scan_messages, t.scans), ""});
  out.push_back({"wire.scan_credit_msgs_per_scan", "1/scan",
                 Ratio(d.scan_credit_messages, t.scans), ""});
  out.push_back({"wire.promote_msgs_per_write", "1/commit",
                 Ratio(d.promote_messages, commits),
                 "per write commit"});
  out.push_back({"wire.peak_queued_scan_bytes", "B",
                 static_cast<double>(d.max_queued_scan_bytes),
                 "high-water mark since the deployment opened"});
  out.push_back({"dc.scan_pauses_per_stream", "1/stream",
                 Ratio(d.scan_pauses, d.scan_streams), ""});
  out.push_back(
      {"dc.cursor_hint_hit_frac", "ratio",
       Ratio(d.cursor_hint_hits, d.cursor_hint_hits + d.cursor_descends),
       ""});
  // cloud
  for (int i = 0; i < 5; ++i) {
    AddSpanPercentiles(&out, spans, static_cast<SpanName>(kSpanCloudW1 + i),
                       "cloud.w" + std::to_string(i + 1));
  }
  // The cost of tracing: the traced run's throughput against the
  // untraced reference run's, in the same process and on the same seed.
  out.push_back({"trace.overhead_frac", "ratio",
                 1 - Ratio(OkPerSecond(phase), reference_req_per_s),
                 "1 - traced/untraced req_per_s; untraced " +
                     Fmt(reference_req_per_s) + "/s"});
  return out;
}

/// One deployment's run: its set-ups, the warm-up, the timed phase, the
/// counters over the phase and the end-of-run check.
struct RunResult {
  std::vector<double> setup_s;
  double setup_rss_mb = 0;
  Phase phase;
  Counters counters;
  WorkloadTotals totals;
  Conditions conditions;
  std::vector<std::string> errors;
};

/// Sets `w` up `setups` times (each earlier deployment is closed before
/// the next set-up's clock starts) and runs the last one. False if a
/// set-up fails.
bool RunDeployment(Workload* w, int setups, int clients, int64_t duration_ns,
                   bool traced, RunResult* r) {
  for (int i = 0; i < setups; ++i) {
    w->Teardown();
    const int64_t start = NowNs();
    untx::Status s = w->Setup();
    r->setup_s.push_back((NowNs() - start) / 1e9);
    std::fprintf(stderr, "setup %d: %.3f s\n", i, r->setup_s.back());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return false;
    }
    if (i == 0) r->setup_rss_mb = RssMb();
  }
  w->StartBackground();
  RunPhase(w, clients, kWarmupNs, false);
  const Counters before = w->Snapshot();
  w->BeginMeasuring();
  r->phase = RunPhase(w, clients, duration_ns, traced);
  w->StopBackground();
  r->counters = w->Snapshot().Minus(before);
  w->Verify(&r->errors);
  r->totals = w->totals();  // includes the failover times
  r->conditions = w->conditions();
  return true;
}

int Run(const Args& args) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int clients = std::max(1, std::min(kMaxClients, nproc));
  const bool traced = args.trace == 1;
  const int64_t duration_ns =
      static_cast<int64_t>(args.seconds) * 1'000'000'000;
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, clients, traced);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<std::string> errors;
  bool wrong = false;
  auto check = [&](const RunResult& r) {
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    for (const Sample& s : r.phase.samples) {
      wrong = wrong || s.outcome == Outcome::kWrong;
    }
  };

  // The traced run's reference: the same run without the timing wrapper
  // and without recording.
  double reference_req_per_s = 0;
  if (traced) {
    std::unique_ptr<Workload> reference =
        MakeWorkload(args.workload, args.seed, clients, false);
    RunResult r;
    if (!RunDeployment(reference.get(), 1, clients, duration_ns, false, &r)) {
      return 1;
    }
    reference_req_per_s = OkPerSecond(r.phase);
    check(r);
  }

  RunResult run;
  if (!RunDeployment(w.get(), traced ? 1 : kSetups, clients, duration_ns,
                     traced, &run)) {
    return 1;
  }
  check(run);
  const Phase& phase = run.phase;
  uint64_t failed = 0;
  for (const Sample& s : phase.samples) {
    if (s.outcome != Outcome::kOk) ++failed;
  }
  const bool correct = errors.empty() && !wrong;

  // Run conditions, recorded with every result.
  Conditions conditions = run.conditions;
  conditions["workload"] = args.workload;
  conditions["seed"] = std::to_string(args.seed);
  conditions["seconds"] = std::to_string(args.seconds);
  conditions["warmup_s"] = Fmt(kWarmupNs / 1e9);
  conditions["setups"] = std::to_string(run.setup_s.size());
  conditions["trace"] = std::to_string(args.trace);
  conditions["clients"] = std::to_string(clients) + " closed-loop threads";
  conditions["nproc"] = std::to_string(nproc);
  conditions["compiler"] = PERFBENCH_COMPILER;
  conditions["build_type"] = PERFBENCH_BUILD_TYPE;
  std::string line = "# conditions {";
  for (const auto& [key, value] : conditions) {
    if (line.back() != '{') line += ", ";
    line += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("%s}\n", line.c_str());
  for (const std::string& e : errors) std::printf("# VIOLATION %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (traced) {
    w->Teardown();  // quiesce every thread that records spans
    const std::vector<Span> spans = CollectSpans();
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    metrics = PerLayerMetrics(phase, run.counters, run.totals,
                              Summarize(spans), reference_req_per_s);
    std::printf("# %zu spans recorded%s%s\n", spans.size(),
                args.trace_out.empty() ? "" : ", written to ",
                args.trace_out.c_str());
  } else {
    metrics = EndToEndMetrics(phase, run.setup_s, run.setup_rss_mb, failed);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(phase.samples.size()) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("# %-34s %14s %-10s %s%s\n", m.name.c_str(),
                Fmt(m.value).c_str(), m.unit.c_str(), m.note.c_str(),
                m.in_result ? "" : " (printed only)");
    if (!m.in_result) continue;
    json += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            Fmt(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <point_rw|durable_ingest|"
                 "movie_socket> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <csv>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
