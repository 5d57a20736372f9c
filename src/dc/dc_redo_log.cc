#include "dc/dc_redo_log.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/coding.h"
#include "common/crc32c.h"

namespace untx {

namespace {
// Backing-file entry: [u8 tag][varint len][encoded entry][fixed32 crc].
// One tag only — suffix truncation rewrites the file, so no marker tag
// is needed (unlike StableLog's prefix-truncate marker).
constexpr char kEntryTag = 1;
}  // namespace

void RedoEntry::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(kind));
  PutFixed16(dst, tc);
  PutVarint64(dst, lsn);
  PutLengthPrefixedSlice(dst, Slice(payload));
}

bool RedoEntry::DecodeFrom(Slice* input, RedoEntry* out) {
  if (input->empty()) return false;
  const uint8_t kind = static_cast<uint8_t>((*input)[0]);
  if (kind < 1 || kind > 5) return false;
  input->remove_prefix(1);
  out->kind = static_cast<RedoEntryKind>(kind);
  uint16_t tc = 0;
  if (!GetFixed16(input, &tc)) return false;
  out->tc = tc;
  if (!GetVarint64(input, &out->lsn)) return false;
  Slice payload;
  if (!GetLengthPrefixedSlice(input, &payload)) return false;
  out->payload.assign(payload.data(), payload.size());
  return true;
}

DcRedoLog::DcRedoLog(DcRedoLogOptions options) : options_(std::move(options)) {
  if (!options_.path.empty()) LoadFile();
}

DcRedoLog::~DcRedoLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void DcRedoLog::LoadFile() {
  std::string blob;
  if (std::FILE* in = std::fopen(options_.path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) blob.append(buf, n);
    std::fclose(in);
  }
  Slice input(blob);
  size_t good = 0;
  while (!input.empty()) {
    if (input[0] != kEntryTag) break;
    Slice attempt(input.data() + 1, input.size() - 1);
    uint64_t len = 0;
    uint32_t masked = 0;
    // Overflow-safe bounds check (see StableLog::LoadFile): a corrupt
    // varint must truncate the tail, not wrap the arithmetic.
    if (!GetVarint64(&attempt, &len) || len > attempt.size() ||
        attempt.size() - len < 4) {
      break;
    }
    Slice body(attempt.data(), len);
    attempt.remove_prefix(len);
    GetFixed32(&attempt, &masked);
    if (crc32c::Unmask(masked) != crc32c::Value(body.data(), body.size())) {
      break;  // torn or corrupt tail entry
    }
    RedoEntry entry;
    Slice entry_input = body;
    if (!RedoEntry::DecodeFrom(&entry_input, &entry)) break;
    entries_.push_back(std::move(entry));
    good = blob.size() - attempt.size();
    input = attempt;
  }
  durable_end_ = entries_.size();  // everything on disk is durable
  RecomputeDerivedLocked();
  if (good < blob.size()) {
    // Torn tail: rewrite the parsed prefix so appends start clean.
    file_ = std::fopen(options_.path.c_str(), "wb");
    if (file_ != nullptr && good > 0) {
      std::fwrite(blob.data(), 1, good, file_);
      std::fflush(file_);
    }
  } else {
    file_ = std::fopen(options_.path.c_str(), "ab");
  }
}

void DcRedoLog::PersistRangeLocked(uint64_t upto) {
  if (file_ == nullptr) return;
  std::string out;
  for (uint64_t rlsn = durable_end_ + 1; rlsn <= upto; ++rlsn) {
    std::string body;
    entries_[rlsn - 1].EncodeTo(&body);
    out.push_back(kEntryTag);
    PutVarint64(&out, body.size());
    out.append(body);
    PutFixed32(&out, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  }
  if (!out.empty()) {
    std::fwrite(out.data(), 1, out.size(), file_);
    // fflush pushes into the kernel: survives SIGKILL of this process
    // (the harness's failure model), like StableLog's backing.
    std::fflush(file_);
  }
}

void DcRedoLog::RewriteFileLocked() {
  if (options_.path.empty()) return;
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(options_.path.c_str(), "wb");
  const uint64_t prev_durable = durable_end_;
  durable_end_ = 0;
  PersistRangeLocked(prev_durable);
  durable_end_ = prev_durable;
}

void DcRedoLog::RecomputeDerivedLocked() {
  latest_watermark_ = 0;
  has_reset_ = false;
  for (const RedoEntry& e : entries_) {
    if (e.kind == RedoEntryKind::kWatermark) {
      latest_watermark_ = std::max(latest_watermark_, e.lsn);
    } else if (e.kind == RedoEntryKind::kReset) {
      has_reset_ = true;
    }
  }
}

uint64_t DcRedoLog::Append(RedoEntry entry) {
  std::lock_guard<std::mutex> guard(mu_);
  bytes_appended_ += entry.payload.size() + 16;
  if (entry.kind == RedoEntryKind::kWatermark) {
    latest_watermark_ = std::max(latest_watermark_, entry.lsn);
  } else if (entry.kind == RedoEntryKind::kReset) {
    has_reset_ = true;
  }
  entries_.push_back(std::move(entry));
  return entries_.size();
}

uint64_t DcRedoLog::Force() {
  std::lock_guard<std::mutex> guard(mu_);
  const uint64_t target = entries_.size();
  if (target > durable_end_) {
    PersistRangeLocked(target);
    durable_end_ = target;
    durable_cv_.notify_all();
  }
  return durable_end_;
}

uint64_t DcRedoLog::end() const {
  std::lock_guard<std::mutex> guard(mu_);
  return entries_.size();
}

uint64_t DcRedoLog::durable_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  return durable_end_;
}

Status DcRedoLog::ReadAt(uint64_t rlsn, RedoEntry* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (rlsn == 0 || rlsn > entries_.size()) {
    return Status::NotFound("rlsn beyond end");
  }
  *out = entries_[rlsn - 1];
  return Status::OK();
}

uint64_t DcRedoLog::ReadFrom(uint64_t from_rlsn, uint32_t max_entries,
                             std::vector<RedoEntry>* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  const uint64_t first = std::max<uint64_t>(from_rlsn, 1);
  if (first > durable_end_ || max_entries == 0) return 0;
  const uint64_t last =
      std::min<uint64_t>(durable_end_, first + max_entries - 1);
  for (uint64_t rlsn = first; rlsn <= last; ++rlsn) {
    out->push_back(entries_[rlsn - 1]);
  }
  return first;
}

bool DcRedoLog::WaitDurable(uint64_t after_rlsn, uint32_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return durable_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] { return durable_end_ > after_rlsn; });
}

uint64_t DcRedoLog::MinOpLsnAfter(uint64_t after_rlsn, TcId tc) const {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t min_lsn = std::numeric_limits<uint64_t>::max();
  for (uint64_t rlsn = after_rlsn + 1; rlsn <= entries_.size(); ++rlsn) {
    const RedoEntry& e = entries_[rlsn - 1];
    if (e.kind == RedoEntryKind::kOp && e.tc == tc) {
      min_lsn = std::min(min_lsn, e.lsn);
    }
  }
  return min_lsn;
}

void DcRedoLog::Crash() {
  std::lock_guard<std::mutex> guard(mu_);
  entries_.resize(durable_end_);
  RecomputeDerivedLocked();
}

void DcRedoLog::TruncateFrom(uint64_t rlsn) {
  std::lock_guard<std::mutex> guard(mu_);
  if (rlsn == 0) rlsn = 1;
  if (rlsn > entries_.size()) return;
  entries_.resize(rlsn - 1);
  if (durable_end_ > entries_.size()) {
    durable_end_ = entries_.size();
    RewriteFileLocked();
  }
  RecomputeDerivedLocked();
}

uint64_t DcRedoLog::latest_watermark() const {
  std::lock_guard<std::mutex> guard(mu_);
  return latest_watermark_;
}

bool DcRedoLog::has_reset() const {
  std::lock_guard<std::mutex> guard(mu_);
  return has_reset_;
}

void DcRedoLog::SnapshotSurvivingOps(std::vector<RedoEntry>* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  // Pass 1 (backward): per TC, the tightest cancellation bound imposed
  // by resets AFTER each position. An op of TC t at position i with
  // lsn > bound(t, i) was declared lost by a later reset.
  // Walking backward lets the bound tighten as resets are met.
  std::map<TcId, uint64_t> bound;  // min stable_end of resets seen so far
  std::vector<uint64_t> op_bound(entries_.size(),
                                 std::numeric_limits<uint64_t>::max());
  for (size_t i = entries_.size(); i-- > 0;) {
    const RedoEntry& e = entries_[i];
    if (e.kind == RedoEntryKind::kReset) {
      auto it = bound.find(e.tc);
      if (it == bound.end() || e.lsn < it->second) bound[e.tc] = e.lsn;
    } else if (e.kind == RedoEntryKind::kOp) {
      auto it = bound.find(e.tc);
      if (it != bound.end()) op_bound[i] = it->second;
    }
  }
  // Pass 2 (forward): emit the replay set in rlsn order — surviving
  // ops plus the control entries that pace replay (resets fold away).
  for (size_t i = 0; i < entries_.size(); ++i) {
    const RedoEntry& e = entries_[i];
    if (e.kind == RedoEntryKind::kReset) continue;
    if (e.kind == RedoEntryKind::kOp && e.lsn > op_bound[i]) continue;
    out->push_back(e);
  }
}

void DcRedoLog::set_replication_enabled(bool on) {
  std::lock_guard<std::mutex> guard(mu_);
  replication_enabled_ = on;
}

bool DcRedoLog::replication_enabled() const {
  std::lock_guard<std::mutex> guard(mu_);
  return replication_enabled_;
}

void DcRedoLog::RecordReplicaAck(uint32_t replica_id, uint64_t rlsn) {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t& acked = replica_acks_[replica_id];
  acked = std::max(acked, rlsn);
}

void DcRedoLog::ForgetReplica(uint32_t replica_id) {
  std::lock_guard<std::mutex> guard(mu_);
  replica_acks_.erase(replica_id);
}

uint64_t DcRedoLog::MinReplicaAck() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (replica_acks_.empty()) return entries_.size();
  uint64_t min_ack = std::numeric_limits<uint64_t>::max();
  for (const auto& [id, acked] : replica_acks_) min_ack = std::min(min_ack, acked);
  return min_ack;
}

uint64_t DcRedoLog::MaxReplicaLag() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (replica_acks_.empty()) return 0;
  uint64_t min_ack = std::numeric_limits<uint64_t>::max();
  for (const auto& [id, acked] : replica_acks_) min_ack = std::min(min_ack, acked);
  const uint64_t end = entries_.size();
  return end > min_ack ? end - min_ack : 0;
}

std::map<uint32_t, uint64_t> DcRedoLog::ReplicaAcks() const {
  std::lock_guard<std::mutex> guard(mu_);
  return replica_acks_;
}

uint64_t DcRedoLog::bytes_appended() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_appended_;
}

// -- Replication wire messages -------------------------------------------------

void ReplicaSubscribeRequest::EncodeTo(std::string* dst) const {
  PutFixed32(dst, replica_id);
  PutVarint64(dst, from_rlsn);
}

bool ReplicaSubscribeRequest::DecodeFrom(Slice* input,
                                         ReplicaSubscribeRequest* out) {
  return GetFixed32(input, &out->replica_id) &&
         GetVarint64(input, &out->from_rlsn);
}

void ReplicaEntriesMessage::EncodeTo(std::string* dst) const {
  PutVarint64(dst, from_rlsn);
  PutVarint64(dst, primary_end);
  PutVarint32(dst, static_cast<uint32_t>(entries.size()));
  for (const RedoEntry& e : entries) e.EncodeTo(dst);
}

bool ReplicaEntriesMessage::DecodeFrom(Slice* input,
                                       ReplicaEntriesMessage* out) {
  uint32_t n = 0;
  if (!GetVarint64(input, &out->from_rlsn) ||
      !GetVarint64(input, &out->primary_end) || !GetVarint32(input, &n)) {
    return false;
  }
  out->entries.clear();
  // Capped: a count from the input never sizes more than it holds.
  out->entries.reserve(std::min<size_t>(n, input->size()));
  for (uint32_t i = 0; i < n; ++i) {
    RedoEntry e;
    if (!RedoEntry::DecodeFrom(input, &e)) return false;
    out->entries.push_back(std::move(e));
  }
  return true;
}

void ReplicaAckMessage::EncodeTo(std::string* dst) const {
  PutFixed32(dst, replica_id);
  PutVarint64(dst, acked_rlsn);
}

bool ReplicaAckMessage::DecodeFrom(Slice* input, ReplicaAckMessage* out) {
  return GetFixed32(input, &out->replica_id) &&
         GetVarint64(input, &out->acked_rlsn);
}

}  // namespace untx
