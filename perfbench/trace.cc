#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "perfbench.h"
#include "tc/dc_client.h"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};

/// One thread's spans. The buffer outlives its thread (the registry owns
/// it); the mutex is only ever contended by CollectSpans.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Span> spans;
  uint64_t next_id = 0;
  uint64_t thread_index = 0;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

thread_local ThreadBuffer* t_buffer = nullptr;
/// Client threads decide per request; every other thread follows the
/// global switch.
thread_local bool t_is_client = false;
thread_local bool t_request_traced = false;
thread_local uint64_t t_current_span = 0;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> guard(g_registry_mu);
    buffer->thread_index = g_registry.size() + 1;
    t_buffer = buffer.get();
    g_registry.push_back(std::move(buffer));
  }
  return t_buffer;
}

bool ThreadTracing() {
  return t_is_client ? t_request_traced : g_tracing.load();
}

class TracingDcService final : public untx::DcService {
 public:
  explicit TracingDcService(untx::DcService* target) : target_(target) {}

  void Retarget(untx::DcService* target) { target_.store(target); }

  untx::OperationReply Perform(const untx::OperationRequest& req) override {
    ScopedSpan span(kSpanDcPerform, req.tc_id, req.lsn);
    return target_.load()->Perform(req);
  }

  std::vector<untx::OperationReply> PerformBatch(
      const std::vector<untx::OperationRequest>& reqs) override {
    ScopedSpan span(kSpanDcBatch, reqs.empty() ? 0 : reqs.front().tc_id,
                    reqs.empty() ? 0 : reqs.front().lsn);
    return target_.load()->PerformBatch(reqs);
  }

  untx::ControlReply Control(const untx::ControlRequest& req) override {
    ScopedSpan span(kSpanDcControl, req.tc_id, req.lsn);
    return target_.load()->Control(req);
  }

  void PerformScanStream(const untx::ScanStreamRequest& req,
                         const ScanChunkEmitter& emit) override {
    ScopedSpan span(kSpanDcScanStream, req.base.tc_id, req.base.lsn);
    target_.load()->PerformScanStream(req, emit);
  }

  void ScanCredit(const untx::ScanCreditRequest& req,
                  const ScanChunkEmitter& emit) override {
    ScopedSpan span(kSpanDcScanStream, req.tc_id, req.stream_id);
    target_.load()->ScanCredit(req, emit);
  }

 private:
  std::atomic<untx::DcService*> target_;
};

class TracingBoundTransport final : public untx::BoundTransport {
 public:
  explicit TracingBoundTransport(untx::DataComponent* dc)
      : service_(dc), client_(&service_) {}
  untx::DcClient* client() override { return &client_; }
  void Retarget(untx::DataComponent* dc) override { service_.Retarget(dc); }

 private:
  TracingDcService service_;
  untx::DirectDcClient client_;
};

class TracingTransportFactory final : public untx::TransportFactory {
 public:
  std::unique_ptr<untx::BoundTransport> Bind(
      untx::TcId, untx::DcId, untx::DataComponent* target) override {
    return std::make_unique<TracingBoundTransport>(target);
  }
};

}  // namespace

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "request",    "tc.begin",       "tc.read",    "tc.update",
      "tc.insert",  "tc.scan",        "tc.commit",  "tc.abort",
      "dc.perform", "dc.batch",       "dc.scan_stream", "dc.control",
      "cloud.w1",   "cloud.w2",       "cloud.w3",   "cloud.w4",
      "cloud.w5"};
  return name < kNumSpanNames ? kNames[name] : "?";
}

void SetTracing(bool on) { g_tracing.store(on); }

void SetRequestTraced(bool traced) {
  t_is_client = true;
  t_request_traced = traced;
}

ScopedSpan::ScopedSpan(SpanName name, uint16_t tc, uint64_t lsn)
    : active_(ThreadTracing()) {
  if (!active_) return;
  ThreadBuffer* buffer = Buffer();
  span_.id = (buffer->thread_index << 40) | ++buffer->next_id;
  span_.parent = t_current_span;
  span_.name = name;
  span_.tc = tc;
  span_.lsn = lsn;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  ThreadBuffer* buffer = Buffer();
  std::lock_guard<std::mutex> guard(buffer->mu);
  buffer->spans.push_back(span_);
}

std::shared_ptr<untx::TransportFactory> MakeTracingTransportFactory() {
  return std::make_shared<TracingTransportFactory>();
}

std::vector<Span> CollectSpans() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> guard(g_registry_mu);
  for (const auto& buffer : g_registry) {
    std::lock_guard<std::mutex> buffer_guard(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SpanSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    summary.duration_us[s.name].push_back(duration / 1e3);
    summary.self_us[s.name].push_back((duration - covered) / 1e3);
  }
  return summary;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,tc,lsn,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%s,%u,%llu,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 SpanNameString(static_cast<SpanName>(s.name)),
                 static_cast<unsigned>(s.tc),
                 static_cast<unsigned long long>(s.lsn),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
