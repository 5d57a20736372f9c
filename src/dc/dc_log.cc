#include "dc/dc_log.h"

#include <cassert>

#include "common/coding.h"

namespace untx {

void DcLogRecord::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, dlsn);
  PutVarint32(dst, pid);
  PutLengthPrefixedSlice(dst, split_key);
  PutVarint32(dst, aux_pid);
  PutLengthPrefixedSlice(dst, body);
  ablsn.EncodeTo(dst);
}

bool DcLogRecord::DecodeFrom(Slice* input, DcLogRecord* out) {
  if (input->empty()) return false;
  out->type = static_cast<DcLogRecordType>((*input)[0]);
  input->remove_prefix(1);
  uint64_t dlsn;
  uint32_t pid, aux;
  Slice split_key, body;
  if (!GetVarint64(input, &dlsn)) return false;
  if (!GetVarint32(input, &pid)) return false;
  if (!GetLengthPrefixedSlice(input, &split_key)) return false;
  if (!GetVarint32(input, &aux)) return false;
  if (!GetLengthPrefixedSlice(input, &body)) return false;
  if (!PageAbLsn::DecodeFrom(input, &out->ablsn)) return false;
  out->dlsn = dlsn;
  out->pid = pid;
  out->aux_pid = aux;
  out->split_key = split_key.ToString();
  out->body = body.ToString();
  return true;
}

DcLog::DcLog(StableLogOptions options) : log_(options) {}

void DcLog::AppendBatch(std::vector<DcLogRecord>* records,
                        const std::map<TcId, Lsn>& floor,
                        std::vector<PageId> deferred_frees) {
  std::lock_guard<std::mutex> guard(mu_);
  // Frame the batch with begin/commit records.
  DcLogRecord begin;
  begin.type = DcLogRecordType::kSmoBegin;
  DcLogRecord commit;
  commit.type = DcLogRecordType::kSmoCommit;

  PendingBatch batch;
  batch.floor = floor;
  batch.deferred_frees = std::move(deferred_frees);

  auto append_one = [this](DcLogRecord* rec) {
    std::string payload;
    const StableLog::Reservation slot = log_.Reserve();
    rec->dlsn = slot.index + 1;  // dLSN is 1-based log position
    rec->EncodeTo(&payload);
    log_.Seal(slot, std::move(payload));
    return slot.index;
  };

  batch.first_index = append_one(&begin);
  for (auto& rec : *records) {
    append_one(&rec);
    if (rec.pid != kInvalidPageId) batch.pids.push_back(rec.pid);
  }
  batch.last_index = append_one(&commit);
  batch_starts_.push_back(batch.first_index);
  pending_.push_back(std::move(batch));
}

void DcLog::ForceEligible(const std::map<TcId, Lsn>& eosl,
                          std::vector<PageId>* freed_out) {
  std::lock_guard<std::mutex> guard(mu_);
  while (!pending_.empty()) {
    const PendingBatch& batch = pending_.front();
    bool eligible = true;
    for (const auto& [tc, floor_lsn] : batch.floor) {
      auto it = eosl.find(tc);
      const Lsn have = it == eosl.end() ? 0 : it->second;
      if (floor_lsn > have) {
        eligible = false;
        break;
      }
    }
    if (!eligible) break;
    log_.ForceTo(batch.last_index);
    if (freed_out != nullptr) {
      freed_out->insert(freed_out->end(), batch.deferred_frees.begin(),
                        batch.deferred_frees.end());
    }
    pending_.pop_front();
  }
}

bool DcLog::FullyForced() const {
  std::lock_guard<std::mutex> guard(mu_);
  return pending_.empty();
}

std::vector<DcLogBatch> DcLog::ReadStableBatches() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<DcLogBatch> batches;
  DcLogBatch current;
  bool in_batch = false;
  const uint64_t begin = log_.truncated_prefix();
  const uint64_t end = log_.stable_end();
  for (uint64_t i = begin; i < end; ++i) {
    std::string payload;
    if (!log_.ReadAt(i, &payload).ok()) continue;
    Slice in(payload);
    DcLogRecord rec;
    if (!DcLogRecord::DecodeFrom(&in, &rec)) continue;
    switch (rec.type) {
      case DcLogRecordType::kSmoBegin:
        current.records.clear();
        in_batch = true;
        break;
      case DcLogRecordType::kSmoCommit:
        if (in_batch) {
          batches.push_back(std::move(current));
          current = DcLogBatch();
          in_batch = false;
        }
        break;
      default:
        if (in_batch) current.records.push_back(std::move(rec));
        break;
    }
  }
  // A trailing batch without commit is discarded (cannot happen with
  // atomic batch appends + batch-boundary forcing, but be defensive).
  return batches;
}

DLsn DcLog::stable_dlsn_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  return log_.stable_end() + 1;
}

DLsn DcLog::next_dlsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  return log_.total_end() + 1;
}

void DcLog::Crash() {
  std::lock_guard<std::mutex> guard(mu_);
  log_.Crash();
  pending_.clear();
  // Drop batch-start bookkeeping for batches that were lost.
  const uint64_t stable = log_.stable_end();
  while (!batch_starts_.empty() && batch_starts_.back() >= stable) {
    batch_starts_.pop_back();
  }
}

void DcLog::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  log_.Clear();
  pending_.clear();
  batch_starts_.clear();
}

void DcLog::TruncateBelow(DLsn dlsn) {
  std::lock_guard<std::mutex> guard(mu_);
  if (dlsn == kInvalidDLsn) return;
  uint64_t index = dlsn - 1;
  // Never truncate into the unforced region.
  if (!pending_.empty() && index > pending_.front().first_index) {
    index = pending_.front().first_index;
  }
  // Snap down to a batch boundary: keep the latest batch whose begin
  // record is at or below the target, so no batch is split.
  uint64_t boundary = log_.truncated_prefix();
  for (uint64_t start : batch_starts_) {
    if (start <= index) {
      boundary = start;
    } else {
      break;
    }
  }
  log_.TruncatePrefix(boundary);
  while (!batch_starts_.empty() && batch_starts_.front() < boundary) {
    batch_starts_.pop_front();
  }
}

DLsn DcLog::truncated_below() const {
  std::lock_guard<std::mutex> guard(mu_);
  return log_.truncated_prefix() + 1;
}

std::vector<DcLog::PendingBatchInfo> DcLog::DiscardPending() {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<PendingBatchInfo> out;
  for (const PendingBatch& batch : pending_) {
    out.push_back(PendingBatchInfo{batch.floor, batch.pids});
  }
  pending_.clear();
  // Drop the volatile tail holding the discarded batches.
  log_.Crash();
  const uint64_t stable = log_.stable_end();
  while (!batch_starts_.empty() && batch_starts_.back() >= stable) {
    batch_starts_.pop_back();
  }
  return out;
}

}  // namespace untx
