#include "dc/buffer_pool.h"

#include <cassert>

namespace untx {

BufferPool::BufferPool(StableStore* store, DcLog* dc_log,
                       BufferPoolOptions options)
    : store_(store), dc_log_(dc_log), options_(options) {}

Frame* BufferPool::PinLocked(Frame* frame) {
  frame->pins.fetch_add(1, std::memory_order_relaxed);
  // Store only on change: a hot frame's line stays shared between hits.
  const uint64_t now = use_clock_.load(std::memory_order_relaxed);
  if (frame->last_use.load(std::memory_order_relaxed) != now) {
    frame->last_use.store(now, std::memory_order_relaxed);
  }
  return frame;
}

Frame* BufferPool::PinCached(PageId pid) {
  Shard& shard = ShardOf(pid);
  std::shared_lock<std::shared_mutex> guard(shard.mu);
  auto it = shard.frames.find(pid);
  if (it == shard.frames.end()) return nullptr;
  it->second->pins.fetch_add(1, std::memory_order_relaxed);
  return it->second.get();
}

Status BufferPool::Fetch(PageId pid, Frame** out) {
  Shard& shard = ShardOf(pid);
  {
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = shard.frames.find(pid);
    if (it != shard.frames.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      *out = PinLocked(it->second.get());
      return Status::OK();
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Miss: read and decode outside the shard lock.
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data.resize(store_->page_size());
  Status s = store_->Read(pid, frame->data.data());
  if (!s.ok()) return s;
  // Recover the in-memory abLSN from the page-sync trailer.
  SlottedPage page = frame->Page(page_size(), trailer_capacity());
  Slice trailer = page.ReadTrailer();
  if (!trailer.empty()) {
    PageAbLsn ab;
    if (PageAbLsn::DecodeFrom(&trailer, &ab)) {
      frame->ablsn = std::move(ab);
    }
  }
  frame->pins.store(1, std::memory_order_relaxed);
  frame->last_use.store(use_clock_.fetch_add(1) + 1,
                        std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> guard(shard.mu);
    // Another thread may have raced the load.
    auto it = shard.frames.find(pid);
    if (it != shard.frames.end()) {
      *out = PinLocked(it->second.get());
      return Status::OK();
    }
    *out = frame.get();
    shard.frames.emplace(pid, std::move(frame));
  }
  frame_count_.fetch_add(1);
  MaybeEvict();
  return Status::OK();
}

Frame* BufferPool::Create(PageId pid) {
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data.assign(store_->page_size(), 0);
  frame->dirty = true;
  frame->pins.store(1, std::memory_order_relaxed);
  frame->last_use.store(use_clock_.fetch_add(1) + 1,
                        std::memory_order_relaxed);
  Frame* raw = frame.get();
  bool inserted;
  {
    Shard& shard = ShardOf(pid);
    std::unique_lock<std::shared_mutex> guard(shard.mu);
    auto [it, fresh] = shard.frames.try_emplace(pid);
    // A freed id is reused only once its old frame is gone (FreePage).
    assert(fresh || it->second->pins.load() == 0);
    it->second = std::move(frame);
    inserted = fresh;
  }
  if (inserted) frame_count_.fetch_add(1);
  MaybeEvict();
  return raw;
}

void BufferPool::Unpin(Frame* frame) {
  const int before = frame->pins.fetch_sub(1, std::memory_order_release);
  assert(before > 0);
  (void)before;
}

bool BufferPool::Drop(PageId pid) {
  Shard& shard = ShardOf(pid);
  std::unique_lock<std::shared_mutex> guard(shard.mu);
  auto it = shard.frames.find(pid);
  if (it == shard.frames.end()) return true;
  if (it->second->pins.load(std::memory_order_acquire) != 0) return false;
  shard.frames.erase(it);
  frame_count_.fetch_sub(1);
  return true;
}

void BufferPool::FreePage(PageId pid) {
  if (Drop(pid)) {
    store_->Free(pid);
    return;
  }
  std::lock_guard<std::mutex> guard(free_mu_);
  deferred_frees_.push_back(pid);
}

void BufferPool::ForceDcLog() {
  std::vector<PageId> freed;
  dc_log_->ForceEligible(eosl_map(), &freed);
  {
    // Retry the frees an earlier pass had to defer.
    std::lock_guard<std::mutex> guard(free_mu_);
    freed.insert(freed.end(), deferred_frees_.begin(), deferred_frees_.end());
    deferred_frees_.clear();
  }
  for (PageId pid : freed) FreePage(pid);
}

Status BufferPool::TryFlushLocked(Frame* frame) {
  if (!frame->dirty) return Status::OK();
  SlottedPage page = frame->Page(page_size(), trailer_capacity());

  // Gate (1): WAL for the DC log.
  if (page.dlsn() != kInvalidDLsn &&
      page.dlsn() >= dc_log_->stable_dlsn_end()) {
    // Try to make the SMO records stable first (their causality floors
    // may now be satisfied), then re-check.
    ForceDcLog();
    if (page.dlsn() >= dc_log_->stable_dlsn_end()) {
      return Status::Busy("dc log record for page not yet stable");
    }
  }

  PageSyncStrategy strategy = options_.strategy;
  {
    std::lock_guard<std::mutex> guard(marks_mu_);
    // Gate (2): causality — every reflected TC op must be on the stable
    // TC log. Also fold in the freshest low-water marks (§5.1.2).
    for (const auto& [tc, lwm] : lwm_) {
      frame->ablsn.AdvanceTo(tc, lwm);
    }
    for (const auto& [tc, ab] : frame->ablsn.entries()) {
      auto it = eosl_.find(tc);
      const Lsn eosl = it == eosl_.end() ? 0 : it->second;
      if (ab.MaxCovered() > eosl) {
        return Status::Busy("page reflects ops beyond stable TC log");
      }
    }
  }

  // Gate (3): page-sync the abLSN into the trailer.
  std::string trailer;
  frame->ablsn.EncodeTo(&trailer);
  bool can_sync;
  switch (strategy) {
    case PageSyncStrategy::kWaitForLwm:
      can_sync = frame->ablsn.CollapsedAll();
      break;
    case PageSyncStrategy::kStoreFull:
      can_sync = trailer.size() <= trailer_capacity();
      break;
    case PageSyncStrategy::kHybrid:
      can_sync = frame->ablsn.TotalInSetSize() <= options_.hybrid_cap &&
                 trailer.size() <= trailer_capacity();
      break;
    default:
      can_sync = false;
      break;
  }
  if (!can_sync) {
    frame->flush_waiting = true;
    flush_deferrals_.fetch_add(1, std::memory_order_relaxed);
    return Status::Busy("page sync deferred until LWM advances");
  }

  bool wrote = page.WriteTrailer(trailer);
  assert(wrote);
  (void)wrote;
  Status s = store_->Write(frame->pid, frame->data.data());
  if (!s.ok()) return s;
  frame->dirty = false;
  frame->first_op_lsn = 0;
  frame->rec_dlsn = 0;
  frame->flush_waiting = false;
  trailer_bytes_written_.fetch_add(trailer.size(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

size_t BufferPool::FlushAllEligible() {
  ForceDcLog();
  std::vector<PageId> pids = CachedPages();
  size_t still_dirty = 0;
  for (PageId pid : pids) {
    Frame* frame = PinCached(pid);
    if (frame == nullptr) continue;
    {
      ExclusiveLatchGuard latch(&frame->latch);
      if (frame->dirty && !TryFlushLocked(frame).ok()) {
        ++still_dirty;
      }
    }
    Unpin(frame);
  }
  return still_dirty;
}

void BufferPool::OnEndOfStableLog(TcId tc, Lsn eosl) {
  {
    std::lock_guard<std::mutex> guard(marks_mu_);
    Lsn& current = eosl_[tc];
    if (eosl > current) current = eosl;
  }
  ForceDcLog();
}

void BufferPool::OnLowWaterMark(TcId tc, Lsn lwm) {
  {
    std::lock_guard<std::mutex> guard(marks_mu_);
    if (lwm_allowed_.count(tc) == 0) return;  // not re-armed yet
    Lsn& current = lwm_[tc];
    if (lwm > current) current = lwm;
  }
  // Fold the new LWM into parked frames so strategy-1/3 flushes and
  // blocked writers can make progress: one shared pass per shard pins
  // them. Try-latch only: a frame busy in an operation will pick the LWM
  // up at its next flush attempt.
  std::vector<Frame*> parked;
  ForEachFrame([&parked](Frame& frame) {
    if (frame.flush_waiting) {
      frame.pins.fetch_add(1, std::memory_order_relaxed);
      parked.push_back(&frame);
    }
  });
  for (Frame* frame : parked) {
    if (frame->latch.TryLockExclusive()) {
      frame->ablsn.AdvanceTo(tc, lwm);
      // Re-attempt the parked flush right away.
      TryFlushLocked(frame);
      frame->latch.UnlockExclusive();
    }
    Unpin(frame);
  }
}

Lsn BufferPool::eosl_for(TcId tc) const {
  std::lock_guard<std::mutex> guard(marks_mu_);
  auto it = eosl_.find(tc);
  return it == eosl_.end() ? 0 : it->second;
}

Lsn BufferPool::lwm_for(TcId tc) const {
  std::lock_guard<std::mutex> guard(marks_mu_);
  auto it = lwm_.find(tc);
  return it == lwm_.end() ? 0 : it->second;
}

std::map<TcId, Lsn> BufferPool::eosl_map() const {
  std::lock_guard<std::mutex> guard(marks_mu_);
  return eosl_;
}

void BufferPool::AbandonParkedFlushes() {
  ForEachFrame([](Frame& frame) { frame.flush_waiting = false; });
}

std::vector<PageId> BufferPool::CachedPages() const {
  std::vector<PageId> pids;
  pids.reserve(frame_count_.load());
  ForEachFrame([&pids](Frame& frame) { pids.push_back(frame.pid); });
  return pids;
}

Lsn BufferPool::MinDirtyFirstOpLsn() const {
  Lsn min = kMaxLsn;
  ForEachFrame([&min](Frame& frame) {
    if (frame.dirty && frame.first_op_lsn != 0 && frame.first_op_lsn < min) {
      min = frame.first_op_lsn;
    }
  });
  return min;
}

void BufferPool::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> guard(shard.mu);
#ifndef NDEBUG
    for (const auto& [pid, frame] : shard.frames) assert(frame->pins == 0);
#endif
    shard.frames.clear();
  }
  frame_count_.store(0);
  {
    // Every frame is gone now, so the frees that waited on a pin can run.
    std::lock_guard<std::mutex> guard(free_mu_);
    for (PageId pid : deferred_frees_) store_->Free(pid);
    deferred_frees_.clear();
  }
  std::lock_guard<std::mutex> guard(marks_mu_);
  eosl_.clear();
  lwm_.clear();
  // Crash-revert: every TC must re-arm its LWM after redo resend.
  lwm_allowed_.clear();
}

void BufferPool::AllowLwm(TcId tc) {
  std::lock_guard<std::mutex> guard(marks_mu_);
  lwm_allowed_.insert(tc);
}

void BufferPool::DisallowLwm(TcId tc) {
  std::lock_guard<std::mutex> guard(marks_mu_);
  lwm_allowed_.erase(tc);
  lwm_.erase(tc);
}

bool BufferPool::LwmAllowed(TcId tc) const {
  std::lock_guard<std::mutex> guard(marks_mu_);
  return lwm_allowed_.count(tc) > 0;
}

bool BufferPool::ConsolidationSafe() const {
  std::lock_guard<std::mutex> guard(marks_mu_);
  // Every TC this DC has heard from must have completed (re-armed after)
  // its redo; otherwise page merges could union time-skewed abLSNs.
  for (const auto& [tc, eosl] : eosl_) {
    if (lwm_allowed_.count(tc) == 0) return false;
  }
  for (const auto& [tc, lwm] : lwm_) {
    if (lwm_allowed_.count(tc) == 0) return false;
  }
  return true;
}

size_t BufferPool::FrameCount() const { return frame_count_.load(); }

size_t BufferPool::DirtyCount() const {
  size_t n = 0;
  ForEachFrame([&n](Frame& frame) { n += frame.dirty ? 1 : 0; });
  return n;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  for (const Shard& shard : shards_) s.hits += shard.hits.load();
  s.fetches = s.hits + misses_.load();
  s.flushes = flushes_.load();
  s.flush_deferrals = flush_deferrals_.load();
  s.evictions = evictions_.load();
  s.overflows = overflows_.load();
  s.trailer_bytes_written = trailer_bytes_written_.load();
  return s;
}

void BufferPool::MaybeEvict() {
  if (frame_count_.load() <= options_.capacity) return;
  // Victim: the least recently used unpinned clean frame of one shard.
  // Each call starts one shard further on and passes a shard with no
  // candidate to the next, so it visits every shard before giving up.
  const size_t start = evict_hand_.fetch_add(1);
  for (size_t i = 0; i < kShards; ++i) {
    // A concurrent eviction or drop may have made room already.
    if (frame_count_.load() <= options_.capacity) return;
    Shard& shard = shards_[(start + i) % kShards];
    std::unique_lock<std::shared_mutex> guard(shard.mu);
    auto victim = shard.frames.end();
    for (auto it = shard.frames.begin(); it != shard.frames.end(); ++it) {
      const Frame& frame = *it->second;
      if (frame.pins.load(std::memory_order_acquire) == 0 && !frame.dirty &&
          (victim == shard.frames.end() ||
           frame.last_use.load(std::memory_order_relaxed) <
               victim->second->last_use.load(std::memory_order_relaxed))) {
        victim = it;
      }
    }
    if (victim != shard.frames.end()) {
      shard.frames.erase(victim);
      frame_count_.fetch_sub(1);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // All candidates dirty or pinned: record the overflow; a later
  // FlushAllEligible pass will create clean victims.
  overflows_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace untx
