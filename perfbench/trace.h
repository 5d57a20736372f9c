// Span recorder of the traced run. Spans are recorded from the
// benchmark's own code at the public seams of each layer — around every
// TC call in the client loop, and around every DcService call through a
// timing wrapper installed behind DirectDcClient — and kept in memory
// until the run ends. A DC span carries the paper's unique request id
// (tc_id, LSN) of the operation it served; its parent is the TC call it
// ran under (the direct call path runs on the caller's thread).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/cluster.h"

namespace perfbench {

enum SpanName : uint8_t {
  kSpanRequest = 0,  ///< one client request (root)
  kSpanTcBegin,
  kSpanTcRead,
  kSpanTcUpdate,
  kSpanTcInsert,
  kSpanTcScan,
  kSpanTcCommit,
  kSpanTcAbort,
  kSpanDcPerform,
  kSpanDcBatch,
  kSpanDcScanStream,  ///< PerformScanStream and ScanCredit: chunk production
  kSpanDcControl,
  kSpanCloudW1,
  kSpanCloudW2,
  kSpanCloudW3,
  kSpanCloudW4,
  kSpanCloudW5,
  kNumSpanNames
};

/// "tc.read", "dc.perform", ...
const char* SpanNameString(SpanName name);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t lsn = 0;  ///< DC spans: the request's LSN (stream id for scans)
  uint16_t tc = 0;   ///< DC spans: the request's TC id
  uint8_t name = 0;
};

/// Global switch. Threads the benchmark does not drive (TC daemons, the
/// checkpoint driver) record while it is on.
void SetTracing(bool on);

/// Called by a client thread at the start of each request: whether this
/// request's spans (and the DC spans under them) are recorded.
void SetRequestTraced(bool traced);

/// Times one call. Records nothing unless the calling thread is tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint16_t tc = 0, uint64_t lsn = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Direct bindings whose DcService is a timing wrapper around the DC.
/// Retarget swaps the wrapped DC, so failover keeps working.
std::shared_ptr<untx::TransportFactory> MakeTracingTransportFactory();

/// Every span recorded so far, from every thread.
std::vector<Span> CollectSpans();

/// Per span name: durations and self times (duration minus the part of
/// the interval the span's children cover), in microseconds.
struct SpanSummary {
  std::vector<double> duration_us[kNumSpanNames];
  std::vector<double> self_us[kNumSpanNames];
};
SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as CSV (id,parent,name,tc,lsn,start_ns,end_ns).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
