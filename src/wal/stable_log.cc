#include "wal/stable_log.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <thread>

#include "common/coding.h"
#include "common/crc32c.h"

namespace untx {

namespace {
// Backing-file entry tags. Each entry:
//   kRecordTag:   [u8 tag][varint len][payload][fixed32 masked crc(payload)]
//   kTruncateTag: [u8 tag][varint new_base]
constexpr char kRecordTag = 1;
constexpr char kTruncateTag = 2;

/// This thread's appender-gate stripe, fixed for the thread's lifetime.
size_t ThreadStripe(size_t stripes) {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe = next.fetch_add(1);
  return stripe % stripes;
}
}  // namespace

/// Counts the calling appender inside the log for its lifetime. While a
/// drain is in progress it waits on mu_, which the drainer holds until
/// it has finished.
class StableLog::AppendScope {
 public:
  explicit AppendScope(StableLog* log)
      : stripe_(&log->stripes_[ThreadStripe(kStripes)]) {
    for (;;) {
      stripe_->active.fetch_add(1);
      if (!log->draining_.load()) return;
      stripe_->active.fetch_sub(1);
      std::lock_guard<std::mutex> wait(log->mu_);
    }
  }
  ~AppendScope() { stripe_->active.fetch_sub(1); }
  AppendScope(const AppendScope&) = delete;
  AppendScope& operator=(const AppendScope&) = delete;

  Stripe* stripe() const { return stripe_; }

 private:
  Stripe* stripe_;
};

StableLog::StableLog(StableLogOptions options) : options_(std::move(options)) {
  if (!options_.path.empty()) LoadFile();
}

StableLog::~StableLog() {
  if (file_ != nullptr) std::fclose(file_);
  for (uint64_t k = 0; k < dir_size_; ++k) delete dir_[k].load();
}

void StableLog::LoadFile() {
  std::string blob;
  if (std::FILE* in = std::fopen(options_.path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) blob.append(buf, n);
    std::fclose(in);
  }
  std::deque<std::string> loaded;  // loaded[i] is log index base_ + i
  Slice input(blob);
  size_t good = 0;  // offset past the last fully-parsed entry
  while (!input.empty()) {
    const char tag = input[0];
    Slice attempt(input.data() + 1, input.size() - 1);
    if (tag == kRecordTag) {
      uint64_t len = 0;
      uint32_t masked = 0;
      // Overflow-safe bounds check: a corrupt varint near 2^64 would
      // wrap `len + 4`, pass a naive check, and crash the recovery on a
      // giant allocation instead of truncating the torn tail.
      if (!GetVarint64(&attempt, &len) || len > attempt.size() ||
          attempt.size() - len < 4) {
        break;
      }
      std::string payload(attempt.data(), len);
      attempt.remove_prefix(len);
      GetFixed32(&attempt, &masked);
      if (crc32c::Unmask(masked) !=
          crc32c::Value(payload.data(), payload.size())) {
        break;  // torn or corrupt tail entry: everything after is suspect
      }
      loaded.push_back(std::move(payload));
    } else if (tag == kTruncateTag) {
      uint64_t new_base = 0;
      if (!GetVarint64(&attempt, &new_base)) break;
      const uint64_t loaded_end = base_ + loaded.size();
      if (new_base > base_ && new_base <= loaded_end) {
        loaded.erase(loaded.begin(),
                     loaded.begin() + static_cast<ptrdiff_t>(new_base - base_));
        base_ = new_base;
      }
    } else {
      break;
    }
    good = blob.size() - attempt.size();
    input = attempt;
  }
  // Everything on disk is stable.
  uint64_t index = base_;
  seg_base_ = base_ / kSegmentRecords;
  for (std::string& payload : loaded) {
    if (RecordAt(index) == nullptr) {
      InstallSegmentLocked(index / kSegmentRecords,
                           std::make_unique<Segment>());
    }
    Record* rec = RecordAt(index++);
    rec->payload = std::move(payload);
    rec->sealed.store(true);
  }
  tail_.store(index);
  stable_end_.store(index);
  if (good < blob.size()) {
    // Torn tail: rewrite just the parsed prefix so appends start clean.
    file_ = std::fopen(options_.path.c_str(), "wb");
    if (file_ != nullptr && good > 0) {
      std::fwrite(blob.data(), 1, good, file_);
      std::fflush(file_);
    }
  } else {
    file_ = std::fopen(options_.path.c_str(), "ab");
  }
}

void StableLog::PersistRangeLocked(uint64_t from, uint64_t to) {
  if (file_ == nullptr) return;
  std::string out;
  for (uint64_t i = from; i < to; ++i) {
    const std::string& payload = RecordAt(i)->payload;
    out.push_back(kRecordTag);
    PutVarint64(&out, payload.size());
    out.append(payload);
    PutFixed32(&out,
               crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  }
  if (!out.empty()) {
    std::fwrite(out.data(), 1, out.size(), file_);
    // fflush pushes into the kernel: enough to survive SIGKILL of this
    // process (the harness's failure model). Machine-crash durability
    // would add fsync; the simulated force_delay_us stands in for it.
    std::fflush(file_);
  }
}

void StableLog::PersistTruncateLocked(uint64_t index) {
  if (file_ == nullptr) return;
  std::string out;
  out.push_back(kTruncateTag);
  PutVarint64(&out, index);
  std::fwrite(out.data(), 1, out.size(), file_);
  std::fflush(file_);
}

StableLog::Record* StableLog::RecordAt(uint64_t index) const {
  const uint64_t k = index / kSegmentRecords;
  if (k < seg_base_ || k - seg_base_ >= dir_size_) return nullptr;
  Segment* seg = dir_[k - seg_base_].load(std::memory_order_acquire);
  return seg == nullptr ? nullptr : &seg->records[index % kSegmentRecords];
}

bool StableLog::SealedAt(uint64_t index) const {
  const Record* rec = RecordAt(index);
  return rec != nullptr && rec->sealed.load(std::memory_order_acquire);
}

void StableLog::InstallSegment(uint64_t k, uint64_t epoch,
                               std::unique_ptr<Segment> segment) {
  std::lock_guard<std::mutex> guard(mu_);
  // A Crash()/Clear() since the claim: its indices are dead.
  if (epoch != epoch_) return;
  InstallSegmentLocked(k, std::move(segment));
}

void StableLog::InstallSegmentLocked(uint64_t k,
                                     std::unique_ptr<Segment> segment) {
  if (k < seg_base_) return;  // truncated already
  if (k - seg_base_ >= dir_size_) GrowDirectoryLocked(k);
  std::atomic<Segment*>& entry = dir_[k - seg_base_];
  if (entry.load() == nullptr) {
    entry.store(segment.release(), std::memory_order_release);
  }
}

void StableLog::GrowDirectoryLocked(uint64_t k) {
  DrainAppenders();
  // Entries below the first live segment were truncated (null): drop them.
  const uint64_t first = std::max(seg_base_, base_ / kSegmentRecords);
  const uint64_t size = std::max<uint64_t>(16, 2 * (k - first + 1));
  auto dir = std::make_unique<std::atomic<Segment*>[]>(size);
  for (uint64_t j = first; j < seg_base_ + dir_size_; ++j) {
    dir[j - first].store(dir_[j - seg_base_].load());
  }
  dir_ = std::move(dir);
  dir_size_ = size;
  seg_base_ = first;
  UndrainAppenders();
}

void StableLog::DrainAppenders() {
  draining_.store(true);
  for (Stripe& stripe : stripes_) {
    while (stripe.active.load() != 0) std::this_thread::yield();
  }
}

void StableLog::UndrainAppenders() { draining_.store(false); }

StableLog::Reservation StableLog::Reserve() {
  Reservation reservation;
  bool installed;
  {
    AppendScope scope(this);
    reservation.index = tail_.fetch_add(1);
    reservation.epoch = epoch_;
    installed = RecordAt(reservation.index) != nullptr;
  }
  const uint64_t k = reservation.index / kSegmentRecords;
  // The claim halfway through a segment installs the next one, so
  // appenders rarely find theirs missing (and a log that stays short
  // never holds a second segment).
  if (!installed) {
    InstallSegment(k, reservation.epoch, std::make_unique<Segment>());
  }
  if (reservation.index % kSegmentRecords == kSegmentRecords / 2) {
    InstallSegment(k + 1, reservation.epoch, std::make_unique<Segment>());
  }
  return reservation;
}

bool StableLog::Seal(const Reservation& reservation, std::string payload) {
  AppendScope scope(this);
  if (reservation.epoch != epoch_) return false;
  Record* rec = RecordAt(reservation.index);
  assert(rec != nullptr && !rec->sealed.load());
  if (rec == nullptr) return false;
  scope.stripe()->bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  rec->payload = std::move(payload);
  rec->sealed.store(true, std::memory_order_release);
  return true;
}

uint64_t StableLog::Append(std::string payload) {
  const Reservation reservation = Reserve();
  Seal(reservation, std::move(payload));
  return reservation.index;
}

uint64_t StableLog::Force() { return ForceTo(~0ull); }

uint64_t StableLog::ForceTo(uint64_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = stable_end_.load();
  while (target <= index && SealedAt(target)) ++target;
  // Also extend past `index` opportunistically? No: stop at the sealed
  // prefix; `index` is only a lower bound on desire, the prefix rule is
  // what limits us.
  if (target > stable_end_.load()) {
    ++force_count_;
    if (options_.force_delay_us > 0) {
      const uint64_t epoch = epoch_;
      lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.force_delay_us));
      lock.lock();
      // Re-derive target under the lock; more records may have sealed.
      // A concurrent force may have moved stable_end_ past target, and a
      // TruncatePrefix may then have moved base_ past it too. A Crash()
      // or Clear() dropped the records target counted: start over.
      if (epoch_ != epoch) target = stable_end_.load();
      target = std::max(target, stable_end_.load());
      while (SealedAt(target)) ++target;
    }
    if (target > stable_end_.load()) {
      PersistRangeLocked(stable_end_.load(), target);
      stable_end_.store(target);
    }
    stable_cv_.notify_all();
  }
  return stable_end_.load();
}

bool StableLog::WaitStableThrough(uint64_t index, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return stable_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this, index] {
                               return stable_end_.load() > index;
                             });
}

uint64_t StableLog::stable_end() const { return stable_end_.load(); }

uint64_t StableLog::total_end() const { return tail_.load(); }

uint64_t StableLog::sealed_prefix_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t end = stable_end_.load();
  while (SealedAt(end)) ++end;
  return end;
}

Status StableLog::ReadAt(uint64_t index, std::string* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (index < base_) {
    return Status::NotFound("log record truncated");
  }
  if (index >= tail_.load()) {
    return Status::NotFound("log record beyond end");
  }
  if (!SealedAt(index)) {
    return Status::Busy("log record not sealed");
  }
  *out = RecordAt(index)->payload;
  return Status::OK();
}

void StableLog::Crash() {
  std::lock_guard<std::mutex> guard(mu_);
  DrainAppenders();
  const uint64_t stable = stable_end_.load();
  assert(stable >= base_);
  const uint64_t end = tail_.load();
  for (uint64_t i = stable; i < end; ++i) {
    if (Record* rec = RecordAt(i)) {
      rec->sealed.store(false);
      std::string().swap(rec->payload);
    }
  }
  tail_.store(stable);
  ++epoch_;
  UndrainAppenders();
}

void StableLog::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  DrainAppenders();
  for (uint64_t k = 0; k < dir_size_; ++k) delete dir_[k].exchange(nullptr);
  seg_base_ = 0;
  base_ = 0;
  stable_end_.store(0);
  tail_.store(0);
  ++epoch_;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = std::fopen(options_.path.c_str(), "wb");
  }
  UndrainAppenders();
}

void StableLog::TruncatePrefix(uint64_t index) {
  std::lock_guard<std::mutex> guard(mu_);
  if (index <= base_) return;
  // Never truncate into the volatile region.
  index = std::min(index, stable_end_.load());
  // Free whole segments below the new base; in the segment holding it,
  // release just the truncated payloads. Appenders only touch records at
  // or past stable_end, so none of these is in use.
  for (uint64_t i = base_; i < index;) {
    const uint64_t k = i / kSegmentRecords;
    const uint64_t seg_end = (k + 1) * kSegmentRecords;
    if (seg_end <= index) {
      if (k >= seg_base_ && k - seg_base_ < dir_size_) {
        delete dir_[k - seg_base_].exchange(nullptr);
      }
      i = seg_end;
      continue;
    }
    if (Record* rec = RecordAt(i)) std::string().swap(rec->payload);
    ++i;
  }
  base_ = index;
  PersistTruncateLocked(index);
}

uint64_t StableLog::truncated_prefix() const {
  std::lock_guard<std::mutex> guard(mu_);
  return base_;
}

uint64_t StableLog::bytes_appended() const {
  uint64_t bytes = 0;
  for (const Stripe& stripe : stripes_) bytes += stripe.bytes.load();
  return bytes;
}

uint64_t StableLog::force_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return force_count_;
}

}  // namespace untx
