// BufferPool: the DC's cache manager (§4.1.2 responsibility 3).
//
// A page may be flushed to the stable store only when:
//   (1) every DC system-transaction record it reflects is stable in the
//       DC log (WAL for SMOs): page.dlsn <= stable DC log end;
//   (2) every TC operation it reflects is on the stable TC log
//       (causality, §4.2): per-TC abLSN max <= that TC's EOSL;
//   (3) its abstract LSN can be "synced" into the page trailer by the
//       configured §5.1.2 strategy:
//         kWaitForLwm  — wait until the abLSN collapses to <LSNlw, {}>;
//                        meanwhile refuse ops with LSN beyond the in-set.
//         kStoreFull   — serialize the whole abLSN into the trailer.
//         kHybrid      — serialize once the in-set is small enough.
//
// A DC crash is BufferPool::Clear(): cached pages vanish; the stable
// store and the stable DC log survive (§5.3).
//
// Concurrency: the hit path takes no pool-wide lock. Frames live in
// page-id-striped shards, each a map behind a reader/writer lock: a hit
// takes its shard's lock shared, and pins and recency are atomics, so
// Unpin takes no lock at all. A miss inserts under the shard's exclusive
// lock and then evicts from one shard at a time (the least recently used
// unpinned clean frame there), shards taken in turn. The control marks
// (EOSL, LWM, arming) have their own small mutex, off the hit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dc/ab_lsn.h"
#include "dc/dc_log.h"
#include "storage/slotted_page.h"
#include "storage/stable_store.h"
#include "util/latch.h"

namespace untx {

enum class PageSyncStrategy : uint8_t {
  kWaitForLwm = 1,
  kStoreFull = 2,
  kHybrid = 3,
};

struct BufferPoolOptions {
  size_t capacity = 1024;
  PageSyncStrategy strategy = PageSyncStrategy::kStoreFull;
  /// kHybrid: flush once the total in-set size is at or below this.
  uint32_t hybrid_cap = 8;
};

/// One cached page. Content (data/ablsn/dirty/rec fields) is guarded by
/// `latch`; pins, recency and the parked-flush flag are atomics.
struct Frame {
  PageId pid = kInvalidPageId;
  std::vector<char> data;
  Latch latch;
  PageAbLsn ablsn;
  bool dirty = false;
  /// First TC op LSN applied since the frame was last clean (0 = none).
  Lsn first_op_lsn = 0;
  /// First SMO dLSN applied since the frame was last clean (0 = none);
  /// bounds how far the DC log can be truncated at a DC checkpoint.
  DLsn rec_dlsn = 0;
  /// True while a flush is parked waiting for the abLSN to shrink
  /// (strategy 1/3). Writes beyond the in-set must stall (§5.1.2(1)).
  std::atomic<bool> flush_waiting{false};
  /// Set (under the exclusive latch) when an SMO merged this page away.
  /// Anyone who latches the frame afterwards must release and re-descend.
  bool retired = false;

  /// Changed only while the frame's shard lock is held (either mode) or
  /// by the pin holder's Unpin; a frame is evicted or dropped only at 0
  /// under the exclusive shard lock.
  std::atomic<int> pins{0};
  /// The pool's use clock at the last pin (it ticks once per miss).
  std::atomic<uint64_t> last_use{0};

  SlottedPage Page(uint32_t page_size, uint32_t trailer_capacity) {
    return SlottedPage(data.data(), page_size, trailer_capacity);
  }
};

struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t flushes = 0;
  uint64_t flush_deferrals = 0;  ///< flush attempts parked by strategy
  uint64_t evictions = 0;
  uint64_t overflows = 0;        ///< frames beyond configured capacity
  uint64_t trailer_bytes_written = 0;
};

class BufferPool {
 public:
  BufferPool(StableStore* store, DcLog* dc_log, BufferPoolOptions options);

  uint32_t page_size() const { return store_->page_size(); }
  uint32_t trailer_capacity() const { return store_->trailer_capacity(); }

  /// Pins the frame for `pid`, reading it from the store if absent
  /// (decoding the trailer into the in-memory abLSN). kNotFound if the
  /// page does not exist on the store.
  Status Fetch(PageId pid, Frame** out);

  /// Pins a new frame for a freshly allocated page. The caller formats
  /// the page and marks the frame dirty before unpinning.
  Frame* Create(PageId pid);

  void Unpin(Frame* frame);

  /// Removes the frame without flushing. Returns false if the frame is
  /// still pinned (a retired frame may linger until its pins drain; it is
  /// unreachable once the parent pointer is gone). No-op => true.
  bool Drop(PageId pid);

  /// Drops the page's frame and returns its id to the store. If the
  /// frame is still pinned the free waits for a later ForceDcLog (or
  /// Clear): the store reuses freed ids, and a new page created under
  /// the id would otherwise replace a frame someone still holds.
  void FreePage(PageId pid);

  /// Forces eligible DC-log batches and executes their deferred page
  /// frees against the store (consolidation, §5.2.2 "Page Deletes").
  void ForceDcLog();

  /// Attempts to flush one frame; the caller must hold its exclusive
  /// latch. Returns kBusy when a WAL/causality/strategy gate defers it.
  Status TryFlushLocked(Frame* frame);

  /// Flushes every dirty frame currently eligible. Returns the number of
  /// frames that remain dirty.
  size_t FlushAllEligible();

  /// Control-message sinks.
  void OnEndOfStableLog(TcId tc, Lsn eosl);
  void OnLowWaterMark(TcId tc, Lsn lwm);

  /// LWM validity protocol (derived; README "Design notes"): after any DC
  /// state regression (crash-revert or TC-reset), a TC's low-water mark
  /// describes executions whose page effects may have been discarded, so
  /// folding it into abLSNs would wrongly mark un-reapplied operations
  /// as covered. The DC ignores a TC's LWM until that TC re-arms it with
  /// restart-end after completing its redo resend.
  void AllowLwm(TcId tc);
  void DisallowLwm(TcId tc);
  bool LwmAllowed(TcId tc) const;

  /// True when every TC this DC serves has completed its redo resend.
  /// Page consolidations must wait for this (see DataComponent::Perform):
  /// merging pages whose abLSNs were replayed from time-skewed SMO
  /// images would union a split-copied over-coverage into the very page
  /// the covered keys route to.
  bool ConsolidationSafe() const;

  Lsn eosl_for(TcId tc) const;
  Lsn lwm_for(TcId tc) const;
  std::map<TcId, Lsn> eosl_map() const;

  /// Clears every parked flush (strategy-1 §5.1.2 back-pressure). Used
  /// by redo-stream replay: there the refusal can deadlock — the stream
  /// applies in strict order, so the control that would collapse the
  /// abLSN may sit BEHIND the refused op (cancel-filtering shrinks
  /// in-sets below what live history saw). Abandoning the flush is only
  /// a space/liveness trade: the page stays dirty and a later control
  /// re-arms the flush.
  void AbandonParkedFlushes();

  /// Snapshot of currently cached page ids (for reset / checkpoint scans).
  std::vector<PageId> CachedPages() const;

  /// Lowest first_op_lsn among dirty frames (kMaxLsn if none) — the TC
  /// checkpoint uses this to pick how far the RSSP may advance.
  Lsn MinDirtyFirstOpLsn() const;

  /// Drops every frame (the DC crash). Requires no pins outstanding.
  void Clear();

  size_t FrameCount() const;
  size_t DirtyCount() const;
  /// A snapshot of the counters.
  BufferPoolStats stats() const;

 private:
  static constexpr size_t kShards = 16;

  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames;
    std::atomic<uint64_t> hits{0};
  };

  Shard& ShardOf(PageId pid) { return shards_[pid % kShards]; }
  /// Pins a frame found under its shard lock and stamps its recency.
  Frame* PinLocked(Frame* frame);
  /// Pins the cached frame for `pid` without counting a fetch; nullptr
  /// if it is not cached.
  Frame* PinCached(PageId pid);
  /// Evicts one victim if the pool is over capacity. Takes shard locks
  /// one at a time; the caller holds none.
  void MaybeEvict();
  /// Calls fn(Frame&) on every cached frame, holding one shard lock
  /// (shared) at a time.
  template <typename Fn>
  void ForEachFrame(Fn fn) const {
    for (const Shard& shard : shards_) {
      std::shared_lock<std::shared_mutex> guard(shard.mu);
      for (const auto& [pid, frame] : shard.frames) fn(*frame);
    }
  }

  StableStore* store_;
  DcLog* dc_log_;
  BufferPoolOptions options_;

  Shard shards_[kShards];
  std::atomic<size_t> frame_count_{0};
  std::atomic<uint64_t> use_clock_{0};
  std::atomic<size_t> evict_hand_{0};

  mutable std::mutex marks_mu_;  // guards eosl_, lwm_, lwm_allowed_
  std::map<TcId, Lsn> eosl_;
  std::map<TcId, Lsn> lwm_;
  std::set<TcId> lwm_allowed_;

  std::mutex free_mu_;
  std::vector<PageId> deferred_frees_;  // freed pages still pinned

  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> flush_deferrals_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> overflows_{0};
  std::atomic<uint64_t> trailer_bytes_written_{0};
};

/// RAII pin holder.
class PinGuard {
 public:
  PinGuard(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
  ~PinGuard() { Release(); }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

  void Release() {
    if (frame_ != nullptr) {
      pool_->Unpin(frame_);
      frame_ = nullptr;
    }
  }

 private:
  BufferPool* pool_;
  Frame* frame_;
};

}  // namespace untx
