#include "dc/data_component.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/coding.h"

namespace untx {

namespace {

/// Recovery-path tracing (chaos-test forensics): set UNTX_TRACE=1.
bool TraceEnabled() {
  static const bool enabled = getenv("UNTX_TRACE") != nullptr;
  return enabled;
}

std::string SentinelKey(TableId table, const std::string& key) {
  std::string out;
  PutFixed32(&out, table);
  out += key;
  return out;
}

/// Visibility of one record under a read flavor (§6.2).
bool VisibleValue(const LeafRecord& rec, ReadFlavor flavor,
                  std::string* out) {
  switch (flavor) {
    case ReadFlavor::kOwn:
    case ReadFlavor::kDirty:
      // Latest state; a tombstone is an (uncommitted) delete.
      if (rec.is_tombstone()) return false;
      *out = rec.value;
      return true;
    case ReadFlavor::kReadCommitted:
      if (rec.has_before()) {
        if (rec.before_is_null()) return false;  // uncommitted insert
        *out = rec.before;
        return true;
      }
      if (rec.is_tombstone()) return false;
      *out = rec.value;
      return true;
  }
  return false;
}

}  // namespace

DataComponent::DataComponent(StableStore* store, DataComponentOptions options)
    : store_(store), options_(options) {
  dc_log_ = std::make_unique<DcLog>(options_.dc_log);
  pool_ = std::make_unique<BufferPool>(store_, dc_log_.get(),
                                       options_.buffer_pool);
  btree_ = std::make_unique<BTree>(store_, pool_.get(), dc_log_.get(),
                                   options_.btree);
  if (options_.redo_log_enabled) {
    redo_log_ = std::make_unique<DcRedoLog>(options_.redo_log);
    // A log loaded from a backing file is ahead of the (still empty or
    // stable-store-restored) state until someone replays it.
    if (redo_log_->end() > 0) redo_state_current_.store(false);
  }
}

DataComponent::~DataComponent() = default;

Status DataComponent::Initialize() { return btree_->Bootstrap(); }

void DataComponent::EndOp() {
  // Only a crash waits for the drain, and it sets crashed_ before it
  // checks active_ops_. A notifier that still reads crashed_ false
  // decremented before that check (both atomics are seq_cst), so the
  // waiter sees the drain without a wakeup. One that reads it true
  // notifies under the waiter's mutex, so the wakeup cannot fall between
  // the waiter's check and its sleep.
  if (active_ops_.fetch_sub(1) == 1 && crashed_.load()) {
    std::lock_guard<std::mutex> guard(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

Status DataComponent::Recover() {
  // Phase 1 of unbundled recovery: restore well-formed search structures
  // from the DC log, before the TC sends any redo (§5.2.2).
  return btree_->ReplayStableSmoBatches();
}

void DataComponent::Crash() {
  crashed_.store(true);
  // Wait for in-flight operations to drain; their volatile effects are
  // about to vanish with the cache, and their replies are suppressed.
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] { return active_ops_.load() == 0; });
  pool_->Clear();
  dc_log_->Crash();
  if (redo_log_) {
    redo_log_->Crash();
    // Post-crash state (whatever a restore rebuilds from stable pages)
    // may lag the durable redo prefix until it is replayed.
    redo_state_current_.store(false);
  }
  {
    std::lock_guard<std::mutex> guard(reply_mu_);
    reply_cache_.clear();
  }
  {
    std::lock_guard<std::mutex> guard(sentinel_mu_);
    in_flight_.clear();
  }
  {
    // Every TC's next redo pass starts fresh against the reverted state.
    std::lock_guard<std::mutex> guard(redo_mu_);
    redo_fresh_max_.clear();
  }
  ClearScanCursors();
}

void DataComponent::Restore() { crashed_.store(false); }

OperationReply DataComponent::Perform(const OperationRequest& req) {
  if (role_.load() == DcRole::kReplica) {
    // A replica is not in any TC's routing table; answer stray traffic
    // like a down DC so a misrouted TC resends rather than misbehaves.
    OperationReply reply;
    reply.tc_id = req.tc_id;
    reply.lsn = req.lsn;
    reply.status = Status::Crashed("dc is a replica");
    return reply;
  }
  return PerformImpl(req, /*record_redo=*/true, /*defer_redo_force=*/false);
}

OperationReply DataComponent::PerformImpl(const OperationRequest& req,
                                          bool record_redo,
                                          bool defer_redo_force) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  ActiveOp active(this);
  if (crashed_.load()) {
    reply.status = Status::Crashed("dc is down");
    return reply;
  }

  stats_.ops.fetch_add(1);
  if (req.value.size() > options_.max_value_size) {
    reply.status = Status::InvalidArgument("value exceeds max_value_size");
    return reply;
  }

  // Redo must repeat history IN ORDER: serialize recovery executions so
  // a duplicated redo message can't interleave with the original on
  // another server thread (recursive: the batch path already holds it).
  std::unique_lock<std::recursive_mutex> recovery_serial;
  if (req.recovery_resend) {
    recovery_serial =
        std::unique_lock<std::recursive_mutex>(recovery_serial_mu_);
  }

  const bool is_write = IsWriteOp(req.op);
  if (is_write) {
    stats_.writes.fetch_add(1);
    // Fast idempotence path: a resend of an op whose reply we still have.
    //
    // NEVER for recovery resends: a redo stream re-establishes page
    // state after a regression (DC crash revert, TC-reset page
    // drop/merge), and the reply cache describes executions against the
    // PRE-regression state. Worse, LWM pruning erases a cache PREFIX,
    // so the cache can hold a CLR while the forward op it compensates
    // is gone — answering the CLR from the cache while the forward op
    // re-executes resurrects aborted writes. Redo is judged solely by
    // the page abLSN, which is causally tied to the page content.
    if (!req.recovery_resend && LookupReply(req.tc_id, req.lsn, &reply)) {
      stats_.reply_cache_hits.fetch_add(1);
      reply.was_duplicate = true;
      return reply;
    }
  } else {
    stats_.reads.fetch_add(1);
  }

  if (req.op == OpType::kCreateTable) {
    reply = DoCreateTable(req);
    MaybeAppendRedo(req, &reply, record_redo, defer_redo_force);
    CacheReply(reply);
    return reply;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    if (crashed_.load()) {
      reply.status = Status::Crashed("dc went down mid-operation");
      return reply;
    }
    ApplyOutcome outcome;
    reply = ApplyOnce(req, &outcome);
    if (outcome.need_split) {
      Status s = btree_->SplitForInsert(
          req.table_id, req.key,
          req.key.size() + req.value.size() + 64);
      if (!s.ok() && !s.IsBusy()) {
        reply.status = s;
        break;
      }
      continue;
    }
    if (outcome.need_flush_wait || outcome.need_retry) {
      if (std::chrono::steady_clock::now() > deadline) {
        reply.status = Status::TimedOut("operation kept deferring");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (outcome.maybe_consolidate && pool_->ConsolidationSafe()) {
      // Consolidation is deferred while any TC's redo resend is still
      // incomplete: replayed SMO images can be time-skewed (a split-
      // copied abLSN legitimately over-covers sibling-range keys), and
      // merging such pages mid-redo would fold that over-coverage into
      // the page the keys route to — making un-reapplied operations
      // look applied. Once every TC has re-armed (restart-end), each
      // page again covers exactly what redo has re-established, and the
      // Â§5.2.2 max/union rule is sound.
      btree_->TryConsolidate(req.table_id, outcome.consolidate_key);
    }
    break;
  }

  if (is_write && !reply.status.IsBusy() && !reply.status.IsCrashed()) {
    // Redo append + force BEFORE the reply escapes: every op the TC has
    // seen acked is in the durable redo log, so a replica promoted (or a
    // --recover restart) only ever misses ops the TC still counts as
    // in-flight and will resend.
    MaybeAppendRedo(req, &reply, record_redo, defer_redo_force);
    // A duplicate the page abLSN answered stays out of the cache: LWM
    // pruning already dropped its reply, and the abLSN answers it again.
    if (!reply.was_duplicate) CacheReply(reply);
  }
  return reply;
}

void DataComponent::MaybeAppendRedo(const OperationRequest& req,
                                    OperationReply* reply, bool record,
                                    bool defer_force) {
  if (!record || redo_log_ == nullptr) return;
  if (!IsWriteOp(req.op) || reply->was_duplicate) return;
  // Only logical completions advance the abLSN (ok / NotFound /
  // AlreadyExists — see ApplyOnce); anything else did not apply and
  // must not replicate. An abLSN-covered duplicate (reply cache already
  // pruned) is NOT re-appended: its reply carries rlsn 0, so the TC
  // keeps no replication record for it and re-drives it on failover.
  if (!(reply->status.ok() || reply->status.IsNotFound() ||
        reply->status.IsAlreadyExists())) {
    return;
  }
  RedoEntry entry;
  entry.kind = RedoEntryKind::kOp;
  entry.tc = req.tc_id;
  entry.lsn = req.lsn;
  req.EncodeTo(&entry.payload);
  reply->rlsn = redo_log_->Append(std::move(entry));
  stats_.redo_entries_appended.fetch_add(1);
  if (!defer_force) redo_log_->Force();
}

void DataComponent::AppendRedoControl(RedoEntryKind kind, TcId tc,
                                      uint64_t lsn) {
  if (redo_log_ == nullptr || role_.load() != DcRole::kPrimary) return;
  RedoEntry entry;
  entry.kind = kind;
  entry.tc = tc;
  entry.lsn = lsn;
  redo_log_->Append(std::move(entry));
  redo_log_->Force();
}

OperationReply DataComponent::ApplyOnce(const OperationRequest& req,
                                        ApplyOutcome* out) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;

  if (!IsWriteOp(req.op)) {
    switch (req.op) {
      case OpType::kRead:
        return DoRead(req);
      case OpType::kProbeNext:
      case OpType::kScanRange:
        return DoScan(req);
      default:
        reply.status = Status::InvalidArgument("unknown read op");
        return reply;
    }
  }

  // Write path. Sentinel first: detects conflicting concurrent sends
  // (a TC bug) and serializes duplicate resends of the same op.
  std::pair<TcId, Lsn> holder;
  if (!EnterSentinel(req, &holder)) {
    // Not a conflict: a resend racing its original, or a conflict whose
    // holder or requester is a stale duplicate — an op at or below its
    // TC's LWM was acked long ago, and once pruning has dropped its
    // cached reply a late channel copy reaches the sentinel. Either way
    // the other side finishes soon; retry behind it.
    if (holder.first == req.tc_id &&
        (holder.second == req.lsn ||
         std::min(holder.second, req.lsn) <= pool_->lwm_for(req.tc_id))) {
      out->need_retry = true;
      reply.status = Status::Busy("duplicate in flight");
    } else {
      stats_.conflicts_detected.fetch_add(1);
      reply.status = Status::Conflict(
          "concurrent conflicting operation — TC contract violation");
    }
    return reply;
  }

  Frame* leaf = nullptr;
  Status s = btree_->LocateLeaf(req.table_id, req.key, /*exclusive=*/true,
                                &leaf);
  if (!s.ok()) {
    ExitSentinel(req);
    reply.status = s;
    return reply;
  }

  // Idempotence test (§5.1.2): Operation LSN <= Page abLSN.
  bool covered = leaf->ablsn.Covers(req.tc_id, req.lsn);
  const bool redo_in_progress =
      req.recovery_resend && !pool_->LwmAllowed(req.tc_id);
  if (covered && redo_in_progress) {
    // Post-regression redo (the TC has not re-armed at this DC): page
    // state was reverted, and a STALE coverage claim can be a
    // split-copied / merge-unioned abLSN that legitimately over-covers
    // keys whose effects the revert just discarded — trusting it would
    // silently skip the re-establishment this redo exists for. Only
    // coverage created by the current pass itself (a duplicated redo
    // batch re-delivering lsns at or below the pass's high-water mark)
    // is trusted; everything else re-executes. Redo re-execution is
    // safe: the stream carries only logically-applied ops, in LSN
    // order, and record writes are value-idempotent.
    std::lock_guard<std::mutex> guard(redo_mu_);
    auto it = redo_fresh_max_.find(req.tc_id);
    if (it == redo_fresh_max_.end() || req.lsn > it->second) {
      covered = false;
      stats_.redo_stale_coverage_overrides.fetch_add(1);
      if (TraceEnabled()) {
        fprintf(stderr, "[dc] OVERRIDE tc=%u lsn=%llu t=%u key=%s pid=%u\n",
                req.tc_id, (unsigned long long)req.lsn, req.table_id,
                req.key.c_str(), leaf->pid);
      }
    }
  }
  if (covered) {
    if (req.recovery_resend && TraceEnabled()) {
      fprintf(stderr, "[dc] SKIP-COVERED tc=%u lsn=%llu t=%u key=%s pid=%u\n",
              req.tc_id, (unsigned long long)req.lsn, req.table_id,
              req.key.c_str(), leaf->pid);
    }
    stats_.duplicate_hits.fetch_add(1);
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    ExitSentinel(req);
    reply.status = Status::OK();
    reply.was_duplicate = true;
    return reply;
  }

  // Page-sync strategy 1 (§5.1.2): while a flush waits for the abLSN to
  // collapse, refuse operations with LSNs beyond the current in-set.
  if (leaf->flush_waiting &&
      req.lsn > leaf->ablsn.MaxCoveredAll()) {
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    ExitSentinel(req);
    out->need_flush_wait = true;
    reply.status = Status::Busy("page flush pending");
    return reply;
  }

  reply = ApplyWriteOnLeaf(req, leaf, out);

  // Record the operation in the abstract LSN on every LOGICAL completion
  // — including failures (NotFound / AlreadyExists). A failed op's
  // "effect" is no-effect, and that too must be exactly-once: if it were
  // re-executed during recovery against a state where APPLIED ops are
  // skipped by the abLSN test (e.g. after a consolidation whose merged
  // abLSN covers them), it could succeed the second time and resurrect
  // or clobber data. Transient refusals (Busy: page full, flush wait)
  // are NOT recorded — they retry with the same LSN.
  const bool logical_completion = reply.status.ok() ||
                                  reply.status.IsNotFound() ||
                                  reply.status.IsAlreadyExists();
  if (logical_completion) {
    leaf->ablsn.Add(req.tc_id, req.lsn);
    if (redo_in_progress) {
      // Advance the pass's high-water mark: lsns at or below it are now
      // re-established, so a duplicated redo batch must not re-apply
      // them over later re-executed ops.
      std::lock_guard<std::mutex> guard(redo_mu_);
      Lsn& fresh = redo_fresh_max_[req.tc_id];
      if (req.lsn > fresh) fresh = req.lsn;
    }
  }
  if (reply.status.ok()) {
    leaf->dirty = true;
    if (leaf->first_op_lsn == 0 || req.lsn < leaf->first_op_lsn) {
      leaf->first_op_lsn = req.lsn;
    }
  }
  leaf->latch.UnlockExclusive();
  pool_->Unpin(leaf);
  ExitSentinel(req);
  return reply;
}

OperationReply DataComponent::ApplyWriteOnLeaf(const OperationRequest& req,
                                               Frame* leaf,
                                               ApplyOutcome* out) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  reply.status = Status::OK();

  SlottedPage page = leaf->Page(pool_->page_size(), pool_->trailer_capacity());
  bool found;
  const uint16_t slot = BTree::LeafLowerBound(page, req.key, &found);
  LeafRecord rec;
  if (found) {
    LeafRecord::Decode(page.PayloadAt(slot), &rec);
  }

  auto replace_or_split = [&](const LeafRecord& r) {
    Status s = page.ReplaceAt(slot, r.Encode());
    if (s.IsBusy()) {
      out->need_split = true;
      reply.status = Status::Busy("page full");
      return false;
    }
    reply.status = s;
    return s.ok();
  };

  switch (req.op) {
    case OpType::kInsert:
    case OpType::kUpsert: {
      if (found && !(rec.is_tombstone() && req.versioned &&
                     rec.last_writer_tc == req.tc_id)) {
        if (req.op == OpType::kInsert && !rec.is_tombstone()) {
          reply.status = Status::AlreadyExists("key present");
          return reply;
        }
        if (req.op == OpType::kInsert && rec.is_tombstone()) {
          // Non-versioned tombstone cannot exist; versioned tombstone of
          // another TC conflicts — surface as AlreadyExists.
          reply.status = Status::AlreadyExists("key tombstoned");
          return reply;
        }
        // Upsert over an existing record behaves as update.
        reply.value = rec.value;
        reply.has_before = true;
        if (req.versioned && !rec.has_before()) {
          rec.before = rec.value;
          rec.flags |= LeafRecord::kHasBefore;
        }
        rec.value = req.value;
        rec.flags &= ~LeafRecord::kCurrentIsTombstone;
        rec.last_writer_tc = req.tc_id;
        replace_or_split(rec);
        return reply;
      }
      if (found) {
        // Versioned insert over our own uncommitted delete: revive the
        // record, keeping the original committed before-version.
        rec.value = req.value;
        rec.flags &= ~LeafRecord::kCurrentIsTombstone;
        rec.last_writer_tc = req.tc_id;
        replace_or_split(rec);
        return reply;
      }
      LeafRecord fresh;
      fresh.key = req.key;
      fresh.last_writer_tc = req.tc_id;
      fresh.value = req.value;
      if (req.versioned) {
        // §6.2.2: an insert provides a "null" before version.
        fresh.flags = LeafRecord::kHasBefore | LeafRecord::kBeforeIsNull;
      }
      Status s = page.InsertAt(slot, fresh.Encode());
      if (s.IsBusy()) {
        out->need_split = true;
        reply.status = Status::Busy("page full");
        return reply;
      }
      reply.status = s;
      return reply;
    }

    case OpType::kUpdate: {
      if (!found || rec.is_tombstone()) {
        reply.status = Status::NotFound("update of missing key");
        return reply;
      }
      reply.value = rec.value;  // before-image: the TC's undo information
      reply.has_before = true;
      if (req.versioned && !rec.has_before()) {
        rec.before = rec.value;
        rec.flags |= LeafRecord::kHasBefore;
      }
      rec.value = req.value;
      rec.last_writer_tc = req.tc_id;
      replace_or_split(rec);
      return reply;
    }

    case OpType::kDelete: {
      if (!found || rec.is_tombstone()) {
        reply.status = Status::NotFound("delete of missing key");
        return reply;
      }
      reply.value = rec.value;
      reply.has_before = true;
      if (req.versioned) {
        if (!rec.has_before()) {
          rec.before = rec.value;
          rec.flags |= LeafRecord::kHasBefore;
        }
        rec.flags |= LeafRecord::kCurrentIsTombstone;
        rec.value.clear();
        rec.last_writer_tc = req.tc_id;
        replace_or_split(rec);
      } else {
        page.RemoveAt(slot);
      }
      if (page.FillFraction() < 0.2) {
        out->maybe_consolidate = true;
        out->consolidate_key = req.key;
      }
      return reply;
    }

    case OpType::kPromoteVersion: {
      // Commit-time cleanup (§6.2.2): drop the before version, making the
      // later version the committed one. Idempotent by construction.
      if (!found) return reply;
      if (rec.is_tombstone()) {
        page.RemoveAt(slot);
        if (page.FillFraction() < 0.2) {
          out->maybe_consolidate = true;
          out->consolidate_key = req.key;
        }
        return reply;
      }
      if (rec.has_before()) {
        rec.before.clear();
        rec.flags &=
            ~(LeafRecord::kHasBefore | LeafRecord::kBeforeIsNull);
        replace_or_split(rec);
      }
      return reply;
    }

    case OpType::kRollbackVersion: {
      // Abort-time cleanup (§6.2.2): remove the latest version.
      if (!found) return reply;
      if (rec.has_before()) {
        if (rec.before_is_null()) {
          page.RemoveAt(slot);  // undo an uncommitted insert
        } else {
          rec.value = rec.before;
          rec.before.clear();
          rec.flags &= ~(LeafRecord::kHasBefore | LeafRecord::kBeforeIsNull |
                         LeafRecord::kCurrentIsTombstone);
          replace_or_split(rec);
        }
      }
      return reply;
    }

    default:
      reply.status = Status::InvalidArgument("unknown write op");
      return reply;
  }
}

OperationReply DataComponent::DoRead(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  Frame* leaf = nullptr;
  Status s =
      btree_->LocateLeaf(req.table_id, req.key, /*exclusive=*/false, &leaf);
  if (!s.ok()) {
    reply.status = s;
    return reply;
  }
  SlottedPage page = leaf->Page(pool_->page_size(), pool_->trailer_capacity());
  bool found;
  const uint16_t slot = BTree::LeafLowerBound(page, req.key, &found);
  if (!found) {
    reply.status = Status::NotFound("key absent");
  } else {
    LeafRecord rec;
    LeafRecord::Decode(page.PayloadAt(slot), &rec);
    std::string value;
    if (VisibleValue(rec, req.read_flavor, &value)) {
      reply.status = Status::OK();
      reply.value = std::move(value);
    } else {
      reply.status = Status::NotFound("no visible version");
    }
  }
  leaf->latch.UnlockShared();
  pool_->Unpin(leaf);
  return reply;
}

OperationReply DataComponent::DoScan(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  reply.status = Status::OK();
  const uint32_t limit =
      req.limit == 0 ? options_.default_scan_limit : req.limit;
  const bool probe = (req.op == OpType::kProbeNext);

  std::string resume_key = req.key;
  // Streamed/windowed resumes exclude the start key itself; the flag is
  // also flipped internally after a retired page forces a restart.
  bool skip_equal = req.exclusive_start;

  for (int restart = 0; restart < 64; ++restart) {
    Frame* leaf = nullptr;
    Status s = btree_->LocateLeaf(req.table_id, resume_key,
                                  /*exclusive=*/false, &leaf);
    if (!s.ok()) {
      reply.status = s;
      return reply;
    }
    for (;;) {
      SlottedPage page =
          leaf->Page(pool_->page_size(), pool_->trailer_capacity());
      bool found;
      uint16_t slot = BTree::LeafLowerBound(page, resume_key, &found);
      if (found && skip_equal) ++slot;
      for (uint16_t i = slot; i < page.slot_count(); ++i) {
        LeafRecord rec;
        LeafRecord::Decode(page.PayloadAt(i), &rec);
        if (!req.end_key.empty() &&
            Slice(rec.key).compare(req.end_key) >= 0) {
          leaf->latch.UnlockShared();
          pool_->Unpin(leaf);
          return reply;
        }
        if (probe) {
          // Probes report every key (locking needs the full picture).
          reply.keys.push_back(rec.key);
        } else {
          std::string value;
          if (VisibleValue(rec, req.read_flavor, &value)) {
            reply.keys.push_back(rec.key);
            reply.values.push_back(std::move(value));
          }
        }
        resume_key = rec.key;
        skip_equal = true;
        if (reply.keys.size() >= limit) {
          leaf->latch.UnlockShared();
          pool_->Unpin(leaf);
          return reply;
        }
      }
      // Advance to the right sibling with latch coupling.
      const PageId next = page.next_page();
      if (next == kInvalidPageId) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        return reply;
      }
      Frame* next_frame = nullptr;
      s = pool_->Fetch(next, &next_frame);
      if (!s.ok()) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        break;  // structure changed; restart from resume_key
      }
      next_frame->latch.LockShared();
      leaf->latch.UnlockShared();
      pool_->Unpin(leaf);
      leaf = next_frame;
      if (leaf->retired) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        break;  // restart from resume_key
      }
    }
  }
  return reply;
}

OperationReply DataComponent::DoCreateTable(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  Status s = btree_->CreateTable(req.table_id);
  if (s.IsAlreadyExists()) {
    reply.status = Status::OK();  // idempotent resend
    reply.was_duplicate = true;
  } else {
    reply.status = s;
  }
  return reply;
}

// ---- Credited scan streams with DC-side cursors (PR 4) -----------------------

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void DataComponent::ReadScanWindow(ScanCursor* cursor, std::string start,
                                   bool start_exclusive,
                                   const std::string& end_bound,
                                   uint32_t max_rows, bool peek_next,
                                   ScanStreamChunk* chunk, bool* exhausted) {
  *exhausted = false;
  chunk->status = Status::OK();
  const bool probe = cursor->req.probe_rows;
  const ReadFlavor flavor = cursor->req.base.read_flavor;
  const TableId table = cursor->req.base.table_id;
  // Probe windows read one extra physical key — the fencepost the TC
  // locks for phantom safety — folded into next_key below.
  const uint32_t target = max_rows + (probe && peek_next ? 1 : 0);
  std::string resume = start;
  bool skip_equal = start_exclusive;
  bool range_ended = false;
  bool complete = false;

  for (int restart = 0; restart < 64 && !complete; ++restart) {
    Frame* leaf = nullptr;
    // The cursor's leaf hint first: a still-valid hint resumes the scan
    // without the root-to-leaf descent PR 3 paid per chunk. An SMO
    // invalidates it via the retired flag (consolidation) or by moving
    // the resume position past the leaf (split — keys only move right,
    // so first_key <= resume keeps the forward chain correct).
    if (cursor->leaf_hint != kInvalidPageId) {
      Frame* f = nullptr;
      if (pool_->Fetch(cursor->leaf_hint, &f).ok()) {
        f->latch.LockShared();
        SlottedPage p =
            f->Page(pool_->page_size(), pool_->trailer_capacity());
        bool valid = !f->retired && p.type() == PageType::kLeaf &&
                     p.table_id() == table && p.slot_count() > 0;
        if (valid) {
          Slice first;
          LeafRecord::DecodeKey(p.PayloadAt(0), &first);
          valid = first.compare(resume) <= 0;
        }
        if (valid) {
          leaf = f;
          stats_.scan_cursor_hint_hits.fetch_add(1);
        } else {
          f->latch.UnlockShared();
          pool_->Unpin(f);
        }
      }
      if (leaf == nullptr) cursor->leaf_hint = kInvalidPageId;
    }
    if (leaf == nullptr) {
      Status s =
          btree_->LocateLeaf(table, resume, /*exclusive=*/false, &leaf);
      if (!s.ok()) {
        chunk->status = s;
        return;
      }
      stats_.scan_cursor_descends.fetch_add(1);
    }
    // Walk the leaf chain with latch coupling, collecting the window.
    while (leaf != nullptr) {
      SlottedPage page =
          leaf->Page(pool_->page_size(), pool_->trailer_capacity());
      bool found;
      uint16_t slot = BTree::LeafLowerBound(page, resume, &found);
      if (found && skip_equal) ++slot;
      for (uint16_t i = slot; i < page.slot_count(); ++i) {
        LeafRecord rec;
        LeafRecord::Decode(page.PayloadAt(i), &rec);
        if (!end_bound.empty() && Slice(rec.key).compare(end_bound) >= 0) {
          range_ended = true;
          break;
        }
        std::string value;
        const bool visible = VisibleValue(rec, flavor, &value);
        if (probe) {
          // Probe semantics (§3.1): every physical key is reported so
          // the TC can lock tombstoned records too; invisible rows are
          // marked and carry an empty value.
          if (!visible) {
            chunk->invisible.push_back(
                static_cast<uint32_t>(chunk->keys.size()));
            value.clear();
          }
          chunk->keys.push_back(rec.key);
          chunk->values.push_back(std::move(value));
        } else if (visible) {
          chunk->keys.push_back(rec.key);
          chunk->values.push_back(std::move(value));
        }
        resume = rec.key;
        skip_equal = true;
        if (chunk->keys.size() >= target) break;
      }
      if (range_ended || chunk->keys.size() >= target) {
        cursor->leaf_hint = leaf->pid;
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        complete = true;
        break;
      }
      const PageId next = page.next_page();
      if (next == kInvalidPageId) {
        range_ended = true;
        cursor->leaf_hint = leaf->pid;
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        complete = true;
        break;
      }
      Frame* next_frame = nullptr;
      Status s = pool_->Fetch(next, &next_frame);
      if (!s.ok()) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        break;  // structure changed; restart from resume
      }
      next_frame->latch.LockShared();
      leaf->latch.UnlockShared();
      pool_->Unpin(leaf);
      leaf = next_frame;
      if (leaf->retired) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        break;  // restart from resume
      }
    }
  }
  // 64 restarts without completing: return the partial window (the
  // stream resumes after it) rather than erroring, like DoScan.

  if (probe && peek_next && chunk->keys.size() == target) {
    // Fold the peeked row into the fencepost: the next window starts AT
    // it (inclusive), exactly the PR 3 fetch-ahead resume discipline.
    chunk->next_key = chunk->keys.back();
    chunk->keys.pop_back();
    chunk->values.pop_back();
    if (!chunk->invisible.empty() &&
        chunk->invisible.back() ==
            static_cast<uint32_t>(chunk->keys.size())) {
      chunk->invisible.pop_back();
    }
    cursor->resume_key = chunk->next_key;
    cursor->resume_exclusive = false;
  } else {
    cursor->resume_key = resume;
    cursor->resume_exclusive = skip_equal;
  }
  *exhausted = range_ended;
}

void DataComponent::ProduceScanChunks(
    const std::shared_ptr<ScanCursor>& cursor, const ScanChunkEmitter& emit,
    const ScanCreditRequest* credit) {
  std::lock_guard<std::mutex> cursor_guard(cursor->mu);
  ActiveOp active(this);

  cursor->last_active_ms.store(SteadyNowMs());
  if (credit != nullptr) {
    cursor->allowed = std::max(cursor->allowed, credit->allowed_chunks);
  }
  const uint32_t chunk_rows =
      cursor->req.chunk_rows == 0 ? 128 : cursor->req.chunk_rows;
  const uint64_t total = cursor->req.base.limit;  // 0 = unbounded

  auto make_chunk = [&](const std::string& from, bool exclusive) {
    ScanStreamChunk chunk;
    chunk.tc_id = cursor->req.base.tc_id;
    chunk.stream_id = cursor->req.base.lsn;
    chunk.chunk_index = cursor->next_chunk;
    chunk.resume_key = from;
    chunk.resume_exclusive = exclusive;
    return chunk;
  };

  // A rewind applies even to an exhausted cursor: the final window's
  // validated read re-reads [rewind_key, end) after the done chunk.
  if (credit != nullptr && credit->rewind &&
      credit->expect_chunk == cursor->next_chunk && !crashed_.load()) {
    // Validated-window rewind: serve window k's post-lock read from the
    // same cursor that probed it. The window is re-read in full — its
    // size is bounded by the locked key set plus whatever slipped in
    // before the locks, never by chunk_rows.
    stats_.scan_rewinds.fetch_add(1);
    const std::string& upto = credit->rewind_upto;
    const std::string& end_bound =
        upto.empty() ? cursor->req.base.end_key : upto;
    ScanStreamChunk chunk =
        make_chunk(credit->rewind_key, credit->rewind_exclusive);
    bool window_ended = false;
    ReadScanWindow(cursor.get(), credit->rewind_key,
                   credit->rewind_exclusive, end_bound,
                   /*max_rows=*/1u << 20, /*peek_next=*/false, &chunk,
                   &window_ended);
    if (chunk.status.ok() && !window_ended) {
      // The re-read gave up mid-window (64 SMO-race restarts): a
      // validated read MUST cover the whole locked window or rows
      // would silently vanish from a serializable scan. Surface a
      // retryable failure; the TC restarts the stream.
      chunk.status = Status::Busy("rewind window kept racing SMOs");
      chunk.keys.clear();
      chunk.values.clear();
      chunk.invisible.clear();
    }
    if (!chunk.status.ok()) {
      cursor->exhausted.store(true);
    } else if (upto.empty()) {
      // The re-read ran to the stream's end bound: nothing follows.
      cursor->exhausted.store(true);
      chunk.done = true;
    } else {
      cursor->resume_key = upto;
      cursor->resume_exclusive = false;
      cursor->exhausted.store(false);
    }
    ++cursor->next_chunk;
    stats_.scan_chunks_emitted.fetch_add(1);
    emit(chunk);
  }

  while (!cursor->exhausted.load() && cursor->next_chunk < cursor->allowed) {
    if (crashed_.load()) return;  // chunks die with the DC; TC restarts
    uint32_t want = chunk_rows;
    if (total != 0) {
      if (cursor->emitted_rows >= total) {
        cursor->exhausted.store(true);
        break;
      }
      want = static_cast<uint32_t>(
          std::min<uint64_t>(chunk_rows, total - cursor->emitted_rows));
    }
    ScanStreamChunk chunk =
        make_chunk(cursor->resume_key, cursor->resume_exclusive);
    bool window_ended = false;
    ReadScanWindow(cursor.get(), cursor->resume_key,
                   cursor->resume_exclusive, cursor->req.base.end_key, want,
                   /*peek_next=*/true, &chunk, &window_ended);
    cursor->emitted_rows += chunk.keys.size();
    const bool limit_hit = total != 0 && cursor->emitted_rows >= total;
    chunk.done = !chunk.status.ok() || window_ended || limit_hit;
    if (chunk.done) cursor->exhausted.store(true);
    ++cursor->next_chunk;
    stats_.scan_chunks_emitted.fetch_add(1);
    emit(chunk);
    if (!chunk.status.ok()) break;
  }
  if (!cursor->exhausted.load() && cursor->next_chunk >= cursor->allowed) {
    stats_.scan_stream_pauses.fetch_add(1);
  }
  cursor->last_active_ms.store(SteadyNowMs());
}

void DataComponent::PerformScanStream(const ScanStreamRequest& req,
                                      const ScanChunkEmitter& emit) {
  if (crashed_.load() || role_.load() == DcRole::kReplica) {
    ScanStreamChunk chunk;
    chunk.tc_id = req.base.tc_id;
    chunk.stream_id = req.base.lsn;
    chunk.done = true;
    chunk.status = crashed_.load() ? Status::Crashed("dc is down")
                                   : Status::Crashed("dc is a replica");
    emit(chunk);
    return;
  }
  EvictIdleScanCursors();
  stats_.scan_streams.fetch_add(1);
  auto cursor = std::make_shared<ScanCursor>();
  cursor->req = req;
  cursor->resume_key = req.base.key;
  cursor->resume_exclusive = req.base.exclusive_start;
  cursor->allowed = req.credit_chunks == 0
                        ? std::numeric_limits<uint32_t>::max()
                        : req.credit_chunks;
  cursor->last_active_ms.store(SteadyNowMs());
  const bool credited = req.credit_chunks != 0;
  if (credited) {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto inserted = cursors_.try_emplace(
        std::make_pair(req.base.tc_id, req.base.lsn), cursor);
    // A duplicated stream request must not fork a second execution: the
    // first arrival owns the cursor; the duplicate's chunks would be
    // dropped by the TC's index dedup anyway.
    if (!inserted.second) return;
  }
  ProduceScanChunks(cursor, emit, nullptr);
  if (credited && cursor->exhausted.load() && !req.probe_rows) {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto it = cursors_.find(std::make_pair(req.base.tc_id, req.base.lsn));
    if (it != cursors_.end() && it->second == cursor) cursors_.erase(it);
  }
}

void DataComponent::ScanCredit(const ScanCreditRequest& req,
                               const ScanChunkEmitter& emit) {
  if (crashed_.load() || role_.load() == DcRole::kReplica) return;
  EvictIdleScanCursors();
  std::shared_ptr<ScanCursor> cursor;
  {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto it = cursors_.find(std::make_pair(req.tc_id, req.stream_id));
    if (it == cursors_.end()) return;  // unknown/stale stream: TC restarts
    if (req.close) {
      cursors_.erase(it);
      return;
    }
    cursor = it->second;
  }
  ProduceScanChunks(cursor, emit, &req);
  if (cursor->exhausted.load() && !cursor->req.probe_rows) {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto it = cursors_.find(std::make_pair(req.tc_id, req.stream_id));
    if (it != cursors_.end() && it->second == cursor) cursors_.erase(it);
  }
}

size_t DataComponent::ScanCursorCount() const {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  return cursors_.size();
}

size_t DataComponent::EvictIdleScanCursors() {
  const int64_t now = SteadyNowMs();
  const int64_t ttl = static_cast<int64_t>(options_.scan_cursor_ttl_ms);
  std::lock_guard<std::mutex> guard(cursor_mu_);
  size_t evicted = 0;
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (now - it->second->last_active_ms.load() > ttl) {
      it = cursors_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  stats_.scan_cursors_evicted.fetch_add(evicted);
  return evicted;
}

void DataComponent::EvictScanCursorsForTc(TcId tc) {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->first.first == tc) {
      it = cursors_.erase(it);
      stats_.scan_cursors_evicted.fetch_add(1);
    } else {
      ++it;
    }
  }
}

void DataComponent::OnTcDisconnect(TcId tc) { EvictScanCursorsForTc(tc); }

void DataComponent::ClearScanCursors() {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  cursors_.clear();
}

ControlReply DataComponent::Control(const ControlRequest& req) {
  ControlReply reply;
  reply.type = req.type;
  reply.tc_id = req.tc_id;
  reply.seq = req.seq;
  // Counted like an operation: checkpoints and resets hold pinned frames
  // that a crash must not clear under them.
  ActiveOp active(this);
  if (crashed_.load()) {
    reply.status = Status::Crashed("dc is down");
    return reply;
  }
  if (role_.load() == DcRole::kReplica) {
    reply.status = Status::Crashed("dc is a replica");
    return reply;
  }
  switch (req.type) {
    case ControlType::kEndOfStableLog:
      pool_->OnEndOfStableLog(req.tc_id, req.lsn);
      AppendRedoControl(RedoEntryKind::kEosl, req.tc_id, req.lsn);
      reply.status = Status::OK();
      break;
    case ControlType::kLowWaterMark:
      pool_->OnLowWaterMark(req.tc_id, req.lsn);
      PruneReplies(req.tc_id, req.lsn);
      AppendRedoControl(RedoEntryKind::kLwm, req.tc_id, req.lsn);
      reply.status = Status::OK();
      break;
    case ControlType::kCheckpoint: {
      // Replica clamp: the TC may not truncate its log below an op the
      // slowest registered replica has not acked — after a failover to
      // that replica the TC must still be able to re-drive it.
      Lsn granted = req.lsn;
      if (redo_log_ != nullptr && redo_log_->replication_enabled()) {
        const uint64_t floor =
            redo_log_->MinOpLsnAfter(redo_log_->MinReplicaAck(), req.tc_id);
        if (floor < granted) granted = static_cast<Lsn>(floor);
      }
      reply.status = DoTcCheckpoint(req.tc_id, granted);
      reply.rlsn = granted;  // the GRANTED (possibly clamped) truncation point
      break;
    }
    case ControlType::kRestartBegin: {
      // The failed TC's open streams died with it: drop their cursors.
      EvictScanCursorsForTc(req.tc_id);
      std::vector<TcId> escalate;
      reply.status = DoReset(req.tc_id, req.lsn, &escalate);
      reply.escalate_tcs = std::move(escalate);
      if (reply.status.ok()) {
        // Replicas reproduce the page-reset semantics by cancel-filtered
        // replay keyed off this entry.
        AppendRedoControl(RedoEntryKind::kReset, req.tc_id, req.lsn);
        if (redo_log_ != nullptr) {
          // The reset reverted pages to OUR stable images, but on a
          // promoted standby those need not cover everything below the
          // TCs' RSSPs — the checkpoint clamp negotiated page stability
          // with the old primary, and escalation resends cannot reach
          // below a truncated TC log. Our own redo log holds the full
          // applied history (the kReset above cancel-filters the lost
          // tail), so re-derive the post-reset truth locally.
          uint64_t replayed = 0;
          Status rs = RecoverFromLocalLog(&replayed);
          if (TraceEnabled()) {
            fprintf(stderr,
                    "[dc %p] RESTART tc=%u stable_end=%llu esc=%zu replay=%s "
                    "ops=%llu end=%llu\n",
                    (void*)this, req.tc_id, (unsigned long long)req.lsn,
                    reply.escalate_tcs.size(), rs.ToString().c_str(),
                    (unsigned long long)replayed,
                    (unsigned long long)redo_log_->end());
          }
          if (!rs.ok()) reply.status = rs;
        }
      }
      break;
    }
    case ControlType::kRestartEnd: {
      // The TC finished its redo resend: its LWM is trustworthy again,
      // and the page abLSNs are once more the coverage authority.
      pool_->AllowLwm(req.tc_id);
      std::lock_guard<std::mutex> guard(redo_mu_);
      redo_fresh_max_.erase(req.tc_id);
      reply.status = Status::OK();
      break;
    }
    case ControlType::kDcCheckpoint:
      reply.status = DoDcCheckpoint();
      break;
    case ControlType::kQueryReplication:
      // "Can you recover locally / do you hold an applied-op log?" The
      // TC's restart path uses rlsn (our applied end) to resend only the
      // suffix its acked-rlsn records say we never durably applied.
      reply.replication_enabled = redo_log_ != nullptr;
      // rlsn 0 unless the state provably reflects the whole log (fresh
      // operation, a finished local replay, or replica apply) — a loaded
      // but unreplayed prefix must not suppress the TC's resend.
      reply.rlsn = redo_log_ != nullptr && redo_state_current_.load()
                       ? redo_log_->end()
                       : 0;
      reply.status = Status::OK();
      break;
    default:
      reply.status = Status::InvalidArgument("unknown control type");
      break;
  }
  return reply;
}

Status DataComponent::DoTcCheckpoint(TcId /*tc*/, Lsn new_rssp) {
  // "DC will reply once it has made stable all pages that contain
  // operations whose LSN is below newRSSP" (§4.2.1). The filter uses the
  // page-global first-op LSN: over-flushing other TCs' pages is harmless.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    // A crash waits for this control to finish: give up at once.
    if (crashed_.load()) return Status::Crashed("dc went down mid-checkpoint");
    pool_->FlushAllEligible();
    bool remaining = false;
    for (PageId pid : pool_->CachedPages()) {
      Frame* frame = nullptr;
      if (!pool_->Fetch(pid, &frame).ok()) continue;
      frame->latch.LockShared();  // operations and flushes write these
      const bool blocking = frame->dirty && frame->first_op_lsn != 0 &&
                            frame->first_op_lsn < new_rssp;
      frame->latch.UnlockShared();
      pool_->Unpin(frame);
      if (blocking) {
        remaining = true;
        break;
      }
    }
    if (!remaining) return Status::OK();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("checkpoint could not flush all pages");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status DataComponent::DoDcCheckpoint() {
  const uint64_t watermark = redo_log_ != nullptr ? redo_log_->end() : 0;
  pool_->FlushAllEligible();
  // The DC log can be truncated below the earliest system-transaction
  // record still needed by a dirty page.
  DLsn min_rec = dc_log_->stable_dlsn_end();
  for (PageId pid : pool_->CachedPages()) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(pid, &frame).ok()) continue;
    frame->latch.LockShared();
    if (frame->dirty && frame->rec_dlsn != 0 && frame->rec_dlsn < min_rec) {
      min_rec = frame->rec_dlsn;
    }
    frame->latch.UnlockShared();
    pool_->Unpin(frame);
  }
  dc_log_->TruncateBelow(min_rec);
  // Checkpoint marker: advisory for local recovery (EOSL-ineligible
  // pages may hold back ops <= W, so replay still starts at rlsn 1 and
  // leans on abLSN duplicate skips), but it propagates the checkpoint
  // cadence to replicas, which flush their own pages on seeing it.
  if (redo_log_ != nullptr) {
    AppendRedoControl(RedoEntryKind::kWatermark, 0, watermark);
  }
  return Status::OK();
}

Status DataComponent::DoReset(TcId tc, Lsn stable_end,
                              std::vector<TcId>* escalate) {
  // §5.3.2 / §6.1.2: drop exactly the cached pages whose abLSN includes
  // operations beyond the failed TC's stable log; on shared pages, reset
  // only the failed TC's records.
  std::vector<TcId> escalate_set;

  // Pre-pass: settle the DC log. Batches whose causality floors are met
  // become stable (their structure survives the reset via replay); the
  // rest may embed operations the failed TC lost and can never be forced
  // — discard them AND every cached page they touched, reverting those
  // pages to their stable versions. Healthy TCs with data on such pages
  // must resend from their RSSP (escalation).
  pool_->ForceDcLog();
  pool_->DisallowLwm(tc);  // re-armed by the TC's restart-end
  const std::vector<DcLog::PendingBatchInfo> discarded =
      dc_log_->DiscardPending();
  for (const auto& batch : discarded) {
    for (const auto& [other_tc, floor_lsn] : batch.floor) {
      if (other_tc != tc) escalate_set.push_back(other_tc);
    }
    for (PageId pid : batch.pids) {
      Frame* frame = nullptr;
      if (!pool_->Fetch(pid, &frame).ok()) continue;
      frame->latch.LockExclusive();
      for (const auto& [other_tc, ab] : frame->ablsn.entries()) {
        if (other_tc != tc) escalate_set.push_back(other_tc);
      }
      frame->latch.UnlockExclusive();
      pool_->Unpin(frame);
      Status dropped = DropForReset(pid);
      if (!dropped.ok()) return dropped;
      stats_.pages_reset_dropped.fetch_add(1);
    }
  }
  for (PageId pid : pool_->CachedPages()) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(pid, &frame).ok()) continue;
    frame->latch.LockExclusive();
    const Lsn max_for_tc = frame->ablsn.MaxCoveredFor(tc);
    if (max_for_tc <= stable_end) {
      frame->latch.UnlockExclusive();
      pool_->Unpin(frame);
      continue;
    }
    if (TraceEnabled()) {
      fprintf(stderr, "[dc] RESET pid=%u tc=%u maxfor=%llu stable_end=%llu tccount=%zu\n",
              pid, tc, (unsigned long long)max_for_tc,
              (unsigned long long)stable_end,
              (size_t)frame->ablsn.TcCount());
    }
    bool drop = false;
    if (frame->ablsn.TcCount() <= 1) {
      drop = true;
      stats_.pages_reset_dropped.fetch_add(1);
    } else {
      // Multi-TC page: try the per-record merge against the stable
      // version; fall back to dropping + escalation.
      std::vector<char> stable(store_->page_size());
      Status rs = store_->Read(pid, stable.data());
      bool merged = false;
      if (rs.ok()) {
        SlottedPage stable_page(stable.data(), pool_->page_size(),
                                pool_->trailer_capacity());
        SlottedPage cached = frame->Page(pool_->page_size(),
                                         pool_->trailer_capacity());
        if (stable_page.dlsn() == cached.dlsn()) {
          merged = MergeResetLocked(frame, tc, stable);
        }
      }
      if (merged) {
        if (TraceEnabled()) fprintf(stderr, "[dc] RESET-MERGED pid=%u\n", pid);
        stats_.pages_reset_merged.fetch_add(1);
      } else {
        drop = true;
        stats_.reset_escalations.fetch_add(1);
        for (const auto& [other_tc, ab] : frame->ablsn.entries()) {
          if (other_tc != tc) escalate_set.push_back(other_tc);
        }
      }
    }
    frame->latch.UnlockExclusive();
    pool_->Unpin(frame);
    if (drop) {
      Status dropped = DropForReset(pid);
      if (!dropped.ok()) return dropped;
    }
  }
  // Evicted structure pages whose SMOs are on the stable DC log must be
  // brought back before the TC resends (§5.2.2 ordering).
  Status s = btree_->ReplayStableSmoBatches();
  if (!s.ok()) return s;

  std::sort(escalate_set.begin(), escalate_set.end());
  escalate_set.erase(std::unique(escalate_set.begin(), escalate_set.end()),
                     escalate_set.end());

  // Invalidate state that describes pre-reset executions: the failed
  // TC's reply cache (its log tail is gone) and, for every escalated TC,
  // both the reply cache and the LWM (their page effects were dropped —
  // stale replies or LWM folding would silently skip their resends).
  {
    std::lock_guard<std::mutex> guard(reply_mu_);
    reply_cache_.erase(tc);
    for (TcId victim : escalate_set) reply_cache_.erase(victim);
  }
  for (TcId victim : escalate_set) pool_->DisallowLwm(victim);
  {
    // A NEW regression: the failed TC's and every escalated TC's next
    // redo pass must re-establish state from scratch.
    std::lock_guard<std::mutex> guard(redo_mu_);
    redo_fresh_max_.erase(tc);
    for (TcId victim : escalate_set) redo_fresh_max_.erase(victim);
  }
  *escalate = std::move(escalate_set);
  return Status::OK();
}

Status DataComponent::DropForReset(PageId pid) {
  // A racing read may pin the frame briefly: wait that out. A pin held
  // past the wait would leave pre-reset state in the cache, so the reset
  // fails instead of carrying on as if the page were gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (!pool_->Drop(pid)) {
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("reset could not drop pinned page " +
                              std::to_string(pid));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return Status::OK();
}

bool DataComponent::MergeResetLocked(Frame* frame, TcId tc,
                                     const std::vector<char>& stable) {
  SlottedPage cached =
      frame->Page(pool_->page_size(), pool_->trailer_capacity());
  SlottedPage stable_page(const_cast<char*>(stable.data()),
                          pool_->page_size(), pool_->trailer_capacity());

  // Index the stable records.
  std::map<std::string, LeafRecord> stable_recs;
  for (uint16_t i = 0; i < stable_page.slot_count(); ++i) {
    LeafRecord rec;
    if (LeafRecord::Decode(stable_page.PayloadAt(i), &rec)) {
      stable_recs[rec.key] = std::move(rec);
    }
  }

  // Pass 1: records last written by the failed TC revert to (or vanish
  // into) their stable state.
  for (uint16_t i = 0; i < cached.slot_count();) {
    LeafRecord rec;
    LeafRecord::Decode(cached.PayloadAt(i), &rec);
    if (rec.last_writer_tc != tc) {
      ++i;
      continue;
    }
    auto it = stable_recs.find(rec.key);
    if (it == stable_recs.end()) {
      cached.RemoveAt(i);
      continue;  // same index now holds the next slot
    }
    if (!cached.ReplaceAt(i, it->second.Encode()).ok()) {
      return false;  // no space — caller escalates
    }
    ++i;
  }
  // Pass 2: stable records of the failed TC missing from the cache
  // (a delete whose log record was lost) come back.
  for (const auto& [key, rec] : stable_recs) {
    if (rec.last_writer_tc != tc) continue;
    bool found;
    const uint16_t slot = BTree::LeafLowerBound(cached, key, &found);
    if (!found) {
      if (!cached.InsertAt(slot, rec.Encode()).ok()) {
        return false;
      }
    }
  }

  // The failed TC's abstract LSN reverts to what the stable page records.
  Slice trailer = stable_page.ReadTrailer();
  PageAbLsn stable_ab;
  if (!trailer.empty()) PageAbLsn::DecodeFrom(&trailer, &stable_ab);
  const AbstractLsn* stable_entry = stable_ab.Find(tc);
  if (stable_entry != nullptr) {
    frame->ablsn.Set(tc, *stable_entry);
  } else {
    frame->ablsn.Erase(tc);
  }
  frame->dirty = true;
  return true;
}

std::vector<OperationReply> DataComponent::PerformBatch(
    const std::vector<OperationRequest>& reqs) {
  stats_.batches.fetch_add(1);
  stats_.batched_ops.fetch_add(reqs.size());
  std::vector<OperationReply> replies(reqs.size());
  if (crashed_.load() || role_.load() == DcRole::kReplica) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      replies[i].tc_id = reqs[i].tc_id;
      replies[i].lsn = reqs[i].lsn;
      replies[i].status = crashed_.load()
                              ? Status::Crashed("dc is down")
                              : Status::Crashed("dc is a replica");
    }
    return replies;
  }
  std::vector<bool> served(reqs.size(), false);
  // A batch carrying recovery resends executes as ONE serial unit (see
  // Perform): duplicated copies of the same redo message must not
  // interleave their re-executions across server threads.
  std::unique_lock<std::recursive_mutex> recovery_serial;
  for (const auto& req : reqs) {
    if (req.recovery_resend) {
      recovery_serial =
          std::unique_lock<std::recursive_mutex>(recovery_serial_mu_);
      break;
    }
  }
  // One reply-cache sweep for the whole batch: a duplicate batch (channel
  // duplication or a TC resend) is answered wholesale without touching
  // the tree or re-entering the idempotence machinery per op. Recovery
  // resends are exempt (see Perform): redo must be judged by the page
  // abLSN alone, never by replies describing pre-regression executions.
  {
    std::lock_guard<std::mutex> guard(reply_mu_);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!IsWriteOp(reqs[i].op) || reqs[i].recovery_resend) continue;
      auto tc_it = reply_cache_.find(reqs[i].tc_id);
      if (tc_it == reply_cache_.end()) continue;
      auto it = tc_it->second.find(reqs[i].lsn);
      if (it == tc_it->second.end()) continue;
      replies[i] = it->second;
      replies[i].was_duplicate = true;
      served[i] = true;
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (served[i]) {
      stats_.ops.fetch_add(1);
      stats_.writes.fetch_add(1);
      stats_.reply_cache_hits.fetch_add(1);
      continue;
    }
    replies[i] = PerformImpl(reqs[i], /*record_redo=*/true,
                             /*defer_redo_force=*/true);
  }
  // One redo force for the whole batch (group commit): no reply leaves
  // this message handler before its entry is durable.
  if (redo_log_ != nullptr) redo_log_->Force();
  return replies;
}

void DataComponent::CacheReply(const OperationReply& reply) {
  std::lock_guard<std::mutex> guard(reply_mu_);
  reply_cache_[reply.tc_id][reply.lsn] = reply;
}

bool DataComponent::LookupReply(TcId tc, Lsn lsn, OperationReply* out) {
  std::lock_guard<std::mutex> guard(reply_mu_);
  auto tc_it = reply_cache_.find(tc);
  if (tc_it == reply_cache_.end()) return false;
  auto it = tc_it->second.find(lsn);
  if (it == tc_it->second.end()) return false;
  *out = it->second;
  return true;
}

void DataComponent::PruneReplies(TcId tc, Lsn lwm) {
  std::lock_guard<std::mutex> guard(reply_mu_);
  auto tc_it = reply_cache_.find(tc);
  if (tc_it == reply_cache_.end()) return;
  auto& per_lsn = tc_it->second;
  per_lsn.erase(per_lsn.begin(), per_lsn.upper_bound(lwm));
}

bool DataComponent::EnterSentinel(const OperationRequest& req,
                                  std::pair<TcId, Lsn>* holder) {
  if (!options_.conflict_sentinel) return true;
  std::lock_guard<std::mutex> guard(sentinel_mu_);
  const std::string key = SentinelKey(req.table_id, req.key);
  auto [it, inserted] = in_flight_.try_emplace(key, req.tc_id, req.lsn);
  if (!inserted) *holder = it->second;
  return inserted;
}

void DataComponent::ExitSentinel(const OperationRequest& req) {
  if (!options_.conflict_sentinel) return;
  std::lock_guard<std::mutex> guard(sentinel_mu_);
  in_flight_.erase(SentinelKey(req.table_id, req.key));
}

// -- Replication & local recovery (PR 8) --------------------------------------

void DataComponent::StartAsReplica() {
  if (redo_log_ == nullptr) {
    redo_log_ = std::make_unique<DcRedoLog>(options_.redo_log);
    if (redo_log_->end() > 0) redo_state_current_.store(false);
  }
  role_.store(DcRole::kReplica);
}

void DataComponent::Promote(uint64_t epoch) {
  if (TraceEnabled()) {
    fprintf(stderr, "[dc %p] PROMOTE epoch=%llu log_end=%llu\n", (void*)this,
            (unsigned long long)epoch,
            (unsigned long long)(redo_log_ ? redo_log_->end() : 0));
  }
  // Record the fence point BEFORE opening for traffic: anything a
  // rejoining ex-primary holds past this rlsn is divergent history.
  promotion_epoch_.store(epoch);
  promotion_base_.store(redo_log_ != nullptr ? redo_log_->end() : 0);
  role_.store(DcRole::kPrimary);
  stats_.promotions.fetch_add(1);
}

Status DataComponent::RejoinAsReplica(uint64_t promotion_base) {
  if (redo_log_ == nullptr) {
    return Status::InvalidArgument("dc has no redo log");
  }
  if (TraceEnabled()) {
    fprintf(stderr, "[dc %p] REJOIN promotion_base=%llu log_end=%llu\n",
            (void*)this, (unsigned long long)promotion_base,
            (unsigned long long)redo_log_->end());
  }
  // Replica role first: no TC traffic may append past the truncation.
  role_.store(DcRole::kReplica);
  redo_log_->set_replication_enabled(false);
  redo_log_->TruncateFrom(promotion_base + 1);
  // Pages may still hold effects of the dropped suffix. That is safe:
  // every such op is either re-shipped by the new primary (identical
  // content, absorbed as an abLSN duplicate) or cancelled by a TC reset
  // in the stream, which rebuilds this replica from scratch anyway.
  return Status::OK();
}

Status DataComponent::ApplyOneReplicated(const RedoEntry& entry) {
  switch (entry.kind) {
    case RedoEntryKind::kOp: {
      OperationRequest req;
      Slice in(entry.payload);
      if (!OperationRequest::DecodeFrom(&in, &req)) {
        return Status::Corruption("bad replicated op entry");
      }
      // A replayed op is recovery redo regardless of how it was first
      // delivered: the payload snapshots the ORIGINAL send's flag, but
      // here the op re-establishes page state after a regression. The
      // flag matters — a page the reset just reverted can still carry a
      // folded-LWM abLSN that over-covers this op (the fold only claimed
      // "the TC will never resend below here", which replay violates by
      // design), and only the recovery path distrusts such coverage.
      req.recovery_resend = true;
      OperationReply r = PerformImpl(req, /*record_redo=*/false,
                                     /*defer_redo_force=*/true);
      if (r.status.IsBusy()) {
        // The stream applies in strict rlsn order with no competing
        // traffic, so a parked strategy-1 flush can refuse this op
        // forever — the collapsing control may sit behind it in the
        // stream (cancel-filtered in-sets cover less than live history
        // did). Abandon the parked flushes and try again.
        pool_->AbandonParkedFlushes();
        r = PerformImpl(req, /*record_redo=*/false,
                        /*defer_redo_force=*/true);
      }
      if (r.status.IsBusy() || r.status.IsCrashed() ||
          r.status.IsTimedOut()) {
        if (TraceEnabled()) {
          fprintf(stderr, "[dc %p] REPLICA-DEFER %s op=%d tc=%u lsn=%llu\n",
                  (void*)this, r.status.ToString().c_str(), (int)req.op,
                  req.tc_id, (unsigned long long)req.lsn);
        }
        return Status::Busy("replica apply deferred");
      }
      return Status::OK();
    }
    case RedoEntryKind::kLwm:
      pool_->OnLowWaterMark(entry.tc, entry.lsn);
      PruneReplies(entry.tc, entry.lsn);
      return Status::OK();
    case RedoEntryKind::kEosl:
      pool_->OnEndOfStableLog(entry.tc, entry.lsn);
      return Status::OK();
    case RedoEntryKind::kWatermark:
      // The primary checkpointed here: flush our own eligible pages so
      // replica restarts replay a comparably short effective suffix and
      // the pool never jams on unflushable dirt during long catch-ups.
      pool_->FlushAllEligible();
      return Status::OK();
    case RedoEntryKind::kReset:
      return Status::OK();  // handled by the caller (reset-by-replay)
  }
  return Status::OK();
}

Status DataComponent::ReplayRedoEntries(const std::vector<RedoEntry>& entries,
                                        uint64_t* ops) {
  for (const RedoEntry& e : entries) {
    Status s = ApplyOneReplicated(e);
    // A replay runs with no competing traffic, so Busy here is a
    // transient flush/split window — retry briefly instead of failing
    // the whole recovery over it.
    for (int attempt = 0; s.IsBusy() && attempt < 200; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      s = ApplyOneReplicated(e);
    }
    if (!s.ok()) return s;
    if (e.kind == RedoEntryKind::kOp && ops != nullptr) ++*ops;
  }
  return Status::OK();
}

Status DataComponent::ApplyReplicated(const ReplicaEntriesMessage& msg) {
  if (redo_log_ == nullptr || role_.load() != DcRole::kReplica) {
    return Status::InvalidArgument("not an active replica");
  }
  if (crashed_.load()) return Status::Crashed("dc is down");
  // Serialized like recovery resends: the stream must apply in order.
  std::lock_guard<std::recursive_mutex> serial(recovery_serial_mu_);
  if (msg.from_rlsn > redo_log_->end() + 1) {
    return Status::InvalidArgument("replication gap; resubscribe");
  }
  for (size_t i = 0; i < msg.entries.size(); ++i) {
    const uint64_t rlsn = msg.from_rlsn + i;
    if (rlsn <= redo_log_->end()) continue;  // overlap: already applied
    const RedoEntry& e = msg.entries[i];
    if (e.kind == RedoEntryKind::kReset) {
      // Append BEFORE rebuilding: the rebuild's cancellation filter
      // keys off this entry's position in the retained log.
      redo_log_->Append(e);
      redo_log_->Force();
      Status s = ReplicaResetByReplay();
      if (!s.ok()) return s;
    } else {
      Status s = ApplyOneReplicated(e);
      if (!s.ok()) {
        // Transient (busy/flush-wait): force what we have; the link
        // retries from our end + 1.
        redo_log_->Force();
        return s;
      }
      redo_log_->Append(e);
    }
    stats_.replica_entries_applied.fetch_add(1);
  }
  redo_log_->Force();
  return Status::OK();
}

Status DataComponent::ReplicaResetByReplay() {
  stats_.replica_resets_replayed.fetch_add(1);
  // Snapshot the replay set first (the wipe never touches the redo log).
  std::vector<RedoEntry> survivors;
  redo_log_->SnapshotSurvivingOps(&survivors);
  // Full wipe: pool, caches, SMO log, store, tree format. Mirrors
  // Crash() + a store/SMO-log clear, then a fresh Bootstrap.
  crashed_.store(true);
  {
    std::unique_lock<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.wait(lock, [this] { return active_ops_.load() == 0; });
  }
  pool_->Clear();
  dc_log_->Clear();
  {
    std::lock_guard<std::mutex> guard(reply_mu_);
    reply_cache_.clear();
  }
  {
    std::lock_guard<std::mutex> guard(sentinel_mu_);
    in_flight_.clear();
  }
  {
    std::lock_guard<std::mutex> guard(redo_mu_);
    redo_fresh_max_.clear();
  }
  ClearScanCursors();
  store_->Reset();
  crashed_.store(false);
  Status s = btree_->Bootstrap();
  if (s.ok()) s = ReplayRedoEntries(survivors, nullptr);
  if (!s.ok()) {
    // A half-rebuilt replica must never be promoted.
    crashed_.store(true);
  } else {
    redo_state_current_.store(true);
  }
  return s;
}

Status DataComponent::RecoverFromLocalLog(uint64_t* replayed_out) {
  if (redo_log_ == nullptr) {
    return Status::InvalidArgument("dc has no redo log");
  }
  if (crashed_.load()) return Status::Crashed("dc is down");
  std::lock_guard<std::recursive_mutex> serial(recovery_serial_mu_);
  // Always the full cancel-filtered set from rlsn 1: checkpoint
  // watermarks cannot promise every op <= W reached a stable page
  // (EOSL-ineligible pages hold ops back), but abLSN duplicate
  // detection makes re-offering already-reflected ops cheap.
  std::vector<RedoEntry> entries;
  redo_log_->SnapshotSurvivingOps(&entries);
  uint64_t ops = 0;
  Status s = ReplayRedoEntries(entries, &ops);
  stats_.local_recovery_ops.fetch_add(ops);
  if (replayed_out != nullptr) *replayed_out = ops;
  if (s.ok()) redo_state_current_.store(true);
  return s;
}

}  // namespace untx
