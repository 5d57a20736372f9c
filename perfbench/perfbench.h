// Shared types of the closed-loop benchmark driver: request samples, the
// counter snapshot taken around the timed phase, and the interface each
// workload implements. See README.md in this directory for the workloads,
// the metrics and how to run them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "kernel/cluster.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one client request did. `kWrong` is a correctness violation (a
/// read returned a value the client's own history rules out, an
/// operation failed in a way no contention explains); `kFailed` is an
/// abort under contention (deadlock, lock timeout) that the client
/// simply moves past.
enum class Outcome : uint8_t { kOk, kFailed, kWrong };

/// One request of one client. `writes` marks requests that commit a
/// write.
struct Sample {
  int64_t start_ns = 0;
  int64_t latency_ns = 0;
  bool writes = false;
  Outcome outcome = Outcome::kOk;
};

/// The public counters of every layer that a per-layer metric reads,
/// summed over the deployment's TCs and primary DCs. Snapshot() before
/// and after the timed phase; the difference is what the phase did.
struct Counters {
  // tc
  uint64_t deadlocks = 0;
  uint64_t ops_sent = 0;
  uint64_t resends = 0;
  uint64_t dup_replies = 0;
  uint64_t probes = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
  // wal (the TC logs)
  uint64_t log_forces = 0;
  uint64_t log_bytes = 0;
  // wire
  uint64_t op_messages = 0;
  uint64_t ops_carried = 0;
  uint64_t scan_messages = 0;
  uint64_t scan_credit_messages = 0;
  uint64_t promote_messages = 0;
  /// A high-water mark since the deployment opened: carried, not
  /// subtracted.
  uint64_t max_queued_scan_bytes = 0;
  // dc
  uint64_t dc_ops = 0;
  uint64_t reply_cache_hits = 0;
  uint64_t scan_streams = 0;
  uint64_t scan_pauses = 0;
  uint64_t cursor_hint_hits = 0;
  uint64_t cursor_descends = 0;
  uint64_t redo_entries = 0;
  uint64_t pool_fetches = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_overflows = 0;
  uint64_t pool_flushes = 0;
  uint64_t btree_splits = 0;
  // storage
  uint64_t store_reads = 0;
  uint64_t store_writes = 0;
  uint32_t page_size = 0;

  /// Reads every counter of `cluster`. The stats structs are read while
  /// the clients are stopped; background daemons may still tick.
  static Counters Snapshot(untx::Cluster* cluster);
  /// this - before, field by field (page_size and the high-water mark
  /// are carried).
  Counters Minus(const Counters& before) const;
};

/// Facts about a workload that the result line records next to the
/// numbers, so a figure is never read without its conditions.
using Conditions = std::map<std::string, std::string>;

/// Counts the workload itself keeps while it runs, beyond the layers'
/// own counters (user bytes, inserts, checkpoint timings, ...).
struct WorkloadTotals {
  uint64_t inserts = 0;
  uint64_t user_bytes_written = 0;
  std::vector<double> checkpoint_ms;
  uint64_t max_replica_lag = 0;
  std::vector<double> failover_ms;
  /// Requests served by scan streams / version promotion (denominators
  /// of the wire ratios).
  uint64_t scans = 0;
  uint64_t write_commits = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Opens and loads a fresh deployment, replacing any previous one.
  virtual untx::Status Setup() = 0;
  /// Closes the current deployment.
  virtual void Teardown() = 0;
  /// Background activity of the timed phase (checkpoint driver, replica
  /// lag sampler). Started before the warm-up, stopped after the clients.
  virtual void StartBackground() {}
  virtual void StopBackground() {}
  /// Marks the start of the measured interval: counts the workload keeps
  /// itself (checkpoint timings, inserts) restart from here.
  virtual void BeginMeasuring() = 0;
  /// One closed-loop request of client `client`.
  virtual Outcome Step(int client, Sample* sample) = 0;
  /// The end-of-run correctness check; appends a reason per violation.
  /// Runs after the timed phase (durable_ingest fails over first).
  virtual void Verify(std::vector<std::string>* errors) = 0;
  /// Counters of every layer, read between background activities.
  virtual Counters Snapshot() = 0;

  /// The workload's own counts since BeginMeasuring.
  virtual WorkloadTotals totals() const = 0;
  virtual Conditions conditions() const = 0;
};

/// "point_rw", "durable_ingest" or "movie_socket"; nullptr otherwise.
/// `traced` installs the timing DC wrapper on direct bindings.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, int clients,
                                       bool traced);

}  // namespace perfbench
