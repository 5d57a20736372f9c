#include "monolithic/engine.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "dc/record_format.h"
#include "storage/page.h"

namespace untx {
namespace monolithic {

namespace {

std::string CatalogEntry(TableId table, PageId root) {
  std::string out;
  PutFixed32(&out, table);
  PutFixed32(&out, root);
  return out;
}

uint16_t LeafLowerBound(const SlottedPage& page, Slice key, bool* found) {
  uint16_t lo = 0, hi = page.slot_count();
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    Slice k;
    LeafRecord::DecodeKey(page.PayloadAt(mid), &k);
    if (k.compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = false;
  if (lo < page.slot_count()) {
    Slice k;
    LeafRecord::DecodeKey(page.PayloadAt(lo), &k);
    *found = (k == key);
  }
  return lo;
}

uint16_t ChildIdx(const SlottedPage& page, Slice key) {
  uint16_t lo = 0, hi = page.slot_count();
  while (lo + 1 < hi) {
    const uint16_t mid = (lo + hi) / 2;
    Slice sep;
    InternalEntry::DecodeKey(page.PayloadAt(mid), &sep);
    if (sep.compare(key) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

std::string MonolithicEngine::LogRec::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(type));
  PutVarint64(&out, txn);
  PutVarint32(&out, pid);
  PutVarint32(&out, table);
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, value);
  PutLengthPrefixedSlice(&out, before);
  out.push_back(has_before ? 1 : 0);
  return out;
}

bool MonolithicEngine::LogRec::Decode(Slice in, LogRec* out) {
  if (in.empty()) return false;
  out->type = static_cast<RecType>(in[0]);
  in.remove_prefix(1);
  uint64_t txn;
  uint32_t pid, table;
  Slice key, value, before;
  if (!GetVarint64(&in, &txn)) return false;
  if (!GetVarint32(&in, &pid)) return false;
  if (!GetVarint32(&in, &table)) return false;
  if (!GetLengthPrefixedSlice(&in, &key)) return false;
  if (!GetLengthPrefixedSlice(&in, &value)) return false;
  if (!GetLengthPrefixedSlice(&in, &before)) return false;
  if (in.empty()) return false;
  out->txn = txn;
  out->pid = pid;
  out->table = table;
  out->key = key.ToString();
  out->value = value.ToString();
  out->before = before.ToString();
  out->has_before = in[0] != 0;
  return true;
}

MonolithicEngine::MonolithicEngine(StableStore* store, EngineOptions options)
    : store_(store),
      options_(options),
      log_(options.log),
      locks_(std::make_unique<LockManager>(options.locks)) {}

MonolithicEngine::~MonolithicEngine() = default;

uint64_t MonolithicEngine::AppendRec(const LogRec& rec) {
  return log_.Append(rec.Encode());
}

Status MonolithicEngine::Initialize() {
  std::lock_guard<std::mutex> guard(mu_);
  meta_pid_ = store_->Allocate();
  Frame* meta = CreateFrame(meta_pid_);
  PageOf(meta).Init(meta_pid_, PageType::kMeta, 0, kInvalidTableId);
  return FlushFrameLocked(meta);
}

StatusOr<MonolithicEngine::Frame*> MonolithicEngine::GetFrame(PageId pid) {
  auto it = frames_.find(pid);
  if (it != frames_.end()) return it->second.get();
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data.resize(store_->page_size());
  Status s = store_->Read(pid, frame->data.data());
  if (!s.ok()) return s;
  Frame* raw = frame.get();
  frames_[pid] = std::move(frame);
  return raw;
}

MonolithicEngine::Frame* MonolithicEngine::CreateFrame(PageId pid) {
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data.assign(store_->page_size(), 0);
  frame->dirty = true;
  Frame* raw = frame.get();
  frames_[pid] = std::move(frame);
  return raw;
}

Status MonolithicEngine::FlushFrameLocked(Frame* f) {
  // WAL: the page's LSN must be on the stable log.
  const DLsn page_lsn = PageOf(f).dlsn();
  if (page_lsn > log_.stable_end()) {
    log_.ForceTo(page_lsn == 0 ? 0 : page_lsn - 1);
  }
  Status s = store_->Write(f->pid, f->data.data());
  if (s.ok()) f->dirty = false;
  return s;
}

Status MonolithicEngine::CreateTable(TableId table) {
  std::lock_guard<std::mutex> guard(mu_);
  if (roots_.count(table) > 0) return Status::AlreadyExists("table");
  const PageId root = store_->Allocate();
  Frame* leaf = CreateFrame(root);
  PageOf(leaf).Init(root, PageType::kLeaf, 0, table);
  StatusOr<Frame*> meta = GetFrame(meta_pid_);
  if (!meta.ok()) return meta.status();
  SlottedPage meta_page = PageOf(*meta);
  // Keep catalog sorted by table id.
  uint16_t slot = 0;
  while (slot < meta_page.slot_count()) {
    Slice payload = meta_page.PayloadAt(slot);
    const uint32_t t = DecodeFixed32(payload.data());
    if (t >= table) break;
    ++slot;
  }
  Status s = meta_page.InsertAt(slot, CatalogEntry(table, root));
  if (!s.ok()) return s;
  (*meta)->dirty = true;
  roots_[table] = root;

  // Redo-only physical images (nested top action).
  LogRec rec;
  rec.type = RecType::kPageImage;
  rec.pid = root;
  rec.value.assign(leaf->data.data(), leaf->data.size());
  const uint64_t l1 = AppendRec(rec);
  PageOf(leaf).set_dlsn(l1 + 1);
  rec.pid = meta_pid_;
  rec.value.assign((*meta)->data.data(), (*meta)->data.size());
  const uint64_t l2 = AppendRec(rec);
  meta_page.set_dlsn(l2 + 1);
  // DDL is auto-committed: force so the table survives a crash.
  log_.ForceTo(l2);
  return Status::OK();
}

StatusOr<PageId> MonolithicEngine::RootOf(TableId table) {
  auto it = roots_.find(table);
  if (it == roots_.end()) return Status::NotFound("table");
  return it->second;
}

StatusOr<MonolithicEngine::Frame*> MonolithicEngine::Leaf(
    TableId table, const std::string& key) {
  StatusOr<PageId> root = RootOf(table);
  if (!root.ok()) return root.status();
  PageId pid = *root;
  for (;;) {
    StatusOr<Frame*> frame = GetFrame(pid);
    if (!frame.ok()) return frame.status();
    SlottedPage page = PageOf(*frame);
    if (page.type() == PageType::kLeaf) return *frame;
    InternalEntry e;
    InternalEntry::Decode(page.PayloadAt(ChildIdx(page, key)), &e);
    pid = e.child;
  }
}

Status MonolithicEngine::SplitLeaf(TableId table, const std::string& key) {
  ++stats_.splits;
  // Collect the root-to-leaf path.
  StatusOr<PageId> root = RootOf(table);
  if (!root.ok()) return root.status();
  std::vector<std::pair<Frame*, uint16_t>> path;
  PageId pid = *root;
  Frame* leaf = nullptr;
  for (;;) {
    StatusOr<Frame*> frame = GetFrame(pid);
    if (!frame.ok()) return frame.status();
    SlottedPage page = PageOf(*frame);
    if (page.type() == PageType::kLeaf) {
      leaf = *frame;
      break;
    }
    const uint16_t idx = ChildIdx(page, key);
    InternalEntry e;
    InternalEntry::Decode(page.PayloadAt(idx), &e);
    path.push_back({*frame, idx});
    pid = e.child;
  }
  SlottedPage leaf_page = PageOf(leaf);
  const uint16_t count = leaf_page.slot_count();
  if (count < 2) return Status::InvalidArgument("cannot split");
  const uint16_t split = count / 2;
  Slice split_key;
  LeafRecord::DecodeKey(leaf_page.PayloadAt(split), &split_key);
  std::string sep = split_key.ToString();

  const PageId new_pid = store_->Allocate();
  Frame* new_leaf = CreateFrame(new_pid);
  SlottedPage new_page = PageOf(new_leaf);
  new_page.Init(new_pid, PageType::kLeaf, 0, table);
  for (uint16_t i = split; i < count; ++i) {
    Status s = new_page.InsertAt(i - split, leaf_page.PayloadAt(i));
    assert(s.ok());
    (void)s;
  }
  while (leaf_page.slot_count() > split) {
    leaf_page.RemoveAt(leaf_page.slot_count() - 1);
  }
  new_page.set_next_page(leaf_page.next_page());
  leaf_page.set_next_page(new_pid);
  leaf->dirty = true;

  // Propagate separator (possibly splitting internals).
  std::string cur_sep = sep;
  PageId cur_child = new_pid;
  std::vector<Frame*> touched = {leaf, new_leaf};
  int level = static_cast<int>(path.size()) - 1;
  for (;;) {
    if (level < 0) {
      const PageId old_root = path.empty() ? leaf->pid : path.front().first->pid;
      const uint16_t old_level =
          path.empty() ? 0 : PageOf(path.front().first).level();
      const PageId new_root = store_->Allocate();
      Frame* root_frame = CreateFrame(new_root);
      SlottedPage root_page = PageOf(root_frame);
      root_page.Init(new_root, PageType::kInternal,
                     static_cast<uint16_t>(old_level + 1), table);
      root_page.InsertAt(0, InternalEntry{"", old_root}.Encode());
      root_page.InsertAt(1, InternalEntry{cur_sep, cur_child}.Encode());
      touched.push_back(root_frame);
      // Update catalog.
      StatusOr<Frame*> meta = GetFrame(meta_pid_);
      if (!meta.ok()) return meta.status();
      SlottedPage meta_page = PageOf(*meta);
      for (uint16_t i = 0; i < meta_page.slot_count(); ++i) {
        Slice payload = meta_page.PayloadAt(i);
        if (DecodeFixed32(payload.data()) == table) {
          meta_page.ReplaceAt(i, CatalogEntry(table, new_root));
          break;
        }
      }
      (*meta)->dirty = true;
      touched.push_back(*meta);
      roots_[table] = new_root;
      break;
    }
    Frame* parent = path[level].first;
    SlottedPage parent_page = PageOf(parent);
    Status s = parent_page.InsertAt(path[level].second + 1,
                                    InternalEntry{cur_sep, cur_child}.Encode());
    if (s.ok()) {
      parent->dirty = true;
      touched.push_back(parent);
      break;
    }
    // Split the internal node.
    const uint16_t pcount = parent_page.slot_count();
    const uint16_t mid = pcount / 2;
    InternalEntry mid_entry;
    InternalEntry::Decode(parent_page.PayloadAt(mid), &mid_entry);
    const std::string promoted = mid_entry.separator;
    const PageId new_int_pid = store_->Allocate();
    Frame* new_int = CreateFrame(new_int_pid);
    SlottedPage new_int_page = PageOf(new_int);
    new_int_page.Init(new_int_pid, PageType::kInternal, parent_page.level(),
                      table);
    new_int_page.InsertAt(0, InternalEntry{"", mid_entry.child}.Encode());
    for (uint16_t i = mid + 1; i < pcount; ++i) {
      new_int_page.InsertAt(new_int_page.slot_count(),
                            parent_page.PayloadAt(i));
    }
    while (parent_page.slot_count() > mid) {
      parent_page.RemoveAt(parent_page.slot_count() - 1);
    }
    SlottedPage* target =
        cur_sep < promoted ? &parent_page : &new_int_page;
    target->InsertAt(ChildIdx(*target, cur_sep) + 1,
                     InternalEntry{cur_sep, cur_child}.Encode());
    parent->dirty = true;
    touched.push_back(parent);
    touched.push_back(new_int);
    cur_sep = promoted;
    cur_child = new_int_pid;
    --level;
  }

  // Log physical images (redo-only nested top action) and stamp LSNs.
  for (Frame* f : touched) {
    LogRec rec;
    rec.type = RecType::kPageImage;
    rec.pid = f->pid;
    rec.value.assign(f->data.data(), f->data.size());
    const uint64_t idx = AppendRec(rec);
    PageOf(f).set_dlsn(idx + 1);
    f->dirty = true;
  }
  return Status::OK();
}

StatusOr<TxnId> MonolithicEngine::Begin() {
  std::lock_guard<std::mutex> guard(mu_);
  const TxnId id = next_txn_++;
  txns_[id] = {};
  LogRec rec;
  rec.type = RecType::kBegin;
  rec.txn = id;
  AppendRec(rec);
  return id;
}

Status MonolithicEngine::ApplyWrite(TxnId txn, RecType type, TableId table,
                                    const std::string& key,
                                    const std::string& value,
                                    std::string* before_out,
                                    bool* had_before) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    StatusOr<Frame*> leaf = Leaf(table, key);
    if (!leaf.ok()) return leaf.status();
    SlottedPage page = PageOf(*leaf);
    bool found;
    const uint16_t slot = LeafLowerBound(page, key, &found);

    LeafRecord rec;
    if (found) LeafRecord::Decode(page.PayloadAt(slot), &rec);
    Status s;
    switch (type) {
      case RecType::kInsert:
        if (found) return Status::AlreadyExists("key");
        {
          LeafRecord fresh;
          fresh.key = key;
          fresh.value = value;
          s = page.InsertAt(slot, fresh.Encode());
        }
        *had_before = false;
        break;
      case RecType::kUpdate:
        if (!found) return Status::NotFound("key");
        *before_out = rec.value;
        *had_before = true;
        rec.value = value;
        s = page.ReplaceAt(slot, rec.Encode());
        break;
      case RecType::kDelete:
        if (!found) return Status::NotFound("key");
        *before_out = rec.value;
        *had_before = true;
        page.RemoveAt(slot);
        s = Status::OK();
        break;
      default:
        return Status::InvalidArgument("bad write type");
    }
    if (s.IsBusy()) {
      Status split = SplitLeaf(table, key);
      if (!split.ok()) return split;
      continue;
    }
    if (!s.ok()) return s;

    // Physiological log record: page id + logical op; LSN assigned while
    // "latched" (we are inside the kernel mutex) — the traditional test
    // applies.
    LogRec log_rec;
    log_rec.type = type;
    log_rec.txn = txn;
    log_rec.pid = (*leaf)->pid;
    log_rec.table = table;
    log_rec.key = key;
    log_rec.value = value;
    log_rec.before = *had_before ? *before_out : "";
    log_rec.has_before = *had_before;
    const uint64_t idx = AppendRec(log_rec);
    page.set_dlsn(idx + 1);
    (*leaf)->dirty = true;
    ++stats_.ops;
    return Status::OK();
  }
  return Status::Busy("page kept overflowing");
}

Status MonolithicEngine::Insert(TxnId txn, TableId table,
                                const std::string& key,
                                const std::string& value) {
  Status s = locks_->Lock(txn, RecordLockName(table, key),
                          LockMode::kExclusive);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> guard(mu_);
  std::string before;
  bool had_before;
  s = ApplyWrite(txn, RecType::kInsert, table, key, value, &before,
                 &had_before);
  if (s.ok()) {
    txns_[txn].push_back({RecType::kInsert, table, key, "", false});
  }
  return s;
}

Status MonolithicEngine::Update(TxnId txn, TableId table,
                                const std::string& key,
                                const std::string& value) {
  Status s = locks_->Lock(txn, RecordLockName(table, key),
                          LockMode::kExclusive);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> guard(mu_);
  std::string before;
  bool had_before;
  s = ApplyWrite(txn, RecType::kUpdate, table, key, value, &before,
                 &had_before);
  if (s.ok()) {
    txns_[txn].push_back({RecType::kUpdate, table, key, before, true});
  }
  return s;
}

Status MonolithicEngine::Delete(TxnId txn, TableId table,
                                const std::string& key) {
  Status s = locks_->Lock(txn, RecordLockName(table, key),
                          LockMode::kExclusive);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> guard(mu_);
  std::string before;
  bool had_before;
  s = ApplyWrite(txn, RecType::kDelete, table, key, "", &before,
                 &had_before);
  if (s.ok()) {
    txns_[txn].push_back({RecType::kDelete, table, key, before, true});
  }
  return s;
}

Status MonolithicEngine::Read(TxnId txn, TableId table,
                              const std::string& key, std::string* value) {
  Status s = locks_->Lock(txn, RecordLockName(table, key), LockMode::kShared);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> guard(mu_);
  StatusOr<Frame*> leaf = Leaf(table, key);
  if (!leaf.ok()) return leaf.status();
  SlottedPage page = PageOf(*leaf);
  bool found;
  const uint16_t slot = LeafLowerBound(page, key, &found);
  if (!found) return Status::NotFound("key");
  LeafRecord rec;
  LeafRecord::Decode(page.PayloadAt(slot), &rec);
  *value = rec.value;
  ++stats_.ops;
  return Status::OK();
}

Status MonolithicEngine::Scan(
    TxnId txn, TableId table, const std::string& from, const std::string& to,
    uint32_t limit, std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // Integrated engines lock keys as they are encountered inside the page
  // (§3.1) — here, while holding the kernel latch; plus the EOF sentinel
  // for phantom safety at the end of the range.
  std::lock_guard<std::mutex> guard(mu_);
  StatusOr<Frame*> leaf_or = Leaf(table, from);
  if (!leaf_or.ok()) return leaf_or.status();
  Frame* leaf = *leaf_or;
  for (;;) {
    SlottedPage page = PageOf(leaf);
    bool found;
    uint16_t slot = LeafLowerBound(page, from, &found);
    for (uint16_t i = slot; i < page.slot_count(); ++i) {
      LeafRecord rec;
      LeafRecord::Decode(page.PayloadAt(i), &rec);
      if (!to.empty() && rec.key >= to) return Status::OK();
      Status s = locks_->Lock(txn, RecordLockName(table, rec.key),
                              LockMode::kShared);
      if (!s.ok()) return s;
      out->emplace_back(rec.key, rec.value);
      if (limit != 0 && out->size() >= limit) return Status::OK();
    }
    const PageId next = page.next_page();
    if (next == kInvalidPageId) break;
    StatusOr<Frame*> next_or = GetFrame(next);
    if (!next_or.ok()) return next_or.status();
    leaf = *next_or;
  }
  return locks_->Lock(txn, TableEofLockName(table), LockMode::kShared);
}

Status MonolithicEngine::Commit(TxnId txn) {
  uint64_t commit_index;
  bool needs_force;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return Status::NotFound("txn");
    needs_force = !it->second.empty();
    LogRec rec;
    rec.type = RecType::kCommit;
    rec.txn = txn;
    commit_index = AppendRec(rec);
    txns_.erase(it);
    ++stats_.commits;
  }
  if (needs_force) {
    if (options_.group_commit) {
      log_.WaitStableThrough(commit_index, 20000);
    } else {
      log_.ForceTo(commit_index);
    }
  }
  locks_->ReleaseAll(txn);
  return Status::OK();
}

Status MonolithicEngine::Abort(TxnId txn) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return Status::NotFound("txn");
    // Undo in reverse with CLRs.
    for (auto e = it->second.rbegin(); e != it->second.rend(); ++e) {
      std::string before;
      bool had_before;
      switch (e->type) {
        case RecType::kInsert:
          ApplyWrite(txn, RecType::kDelete, e->table, e->key, "", &before,
                     &had_before);
          break;
        case RecType::kUpdate:
          ApplyWrite(txn, RecType::kUpdate, e->table, e->key, e->before,
                     &before, &had_before);
          break;
        case RecType::kDelete:
          ApplyWrite(txn, RecType::kInsert, e->table, e->key, e->before,
                     &before, &had_before);
          break;
        default:
          break;
      }
    }
    LogRec rec;
    rec.type = RecType::kAbort;
    rec.txn = txn;
    AppendRec(rec);
    txns_.erase(it);
    ++stats_.aborts;
  }
  locks_->ReleaseAll(txn);
  return Status::OK();
}

void MonolithicEngine::Crash() {
  std::lock_guard<std::mutex> guard(mu_);
  frames_.clear();
  roots_.clear();
  txns_.clear();
  log_.Crash();
  locks_->Reset();
}

Status MonolithicEngine::Recover() {
  std::lock_guard<std::mutex> guard(mu_);
  ++stats_.recoveries;
  meta_pid_ = 1;

  // Analysis + redo (repeat history): apply every record whose LSN is
  // beyond the page LSN — the traditional test, valid because LSNs were
  // assigned under the page latch.
  std::map<TxnId, std::vector<UndoEntry>> losers;
  const uint64_t begin = log_.truncated_prefix();
  const uint64_t end = log_.stable_end();
  for (uint64_t i = begin; i < end; ++i) {
    std::string payload;
    if (!log_.ReadAt(i, &payload).ok()) continue;
    LogRec rec;
    if (!LogRec::Decode(payload, &rec)) continue;
    const uint64_t lsn = i + 1;
    switch (rec.type) {
      case RecType::kBegin:
        losers[rec.txn] = {};
        break;
      case RecType::kCommit:
      case RecType::kAbort:
        losers.erase(rec.txn);
        break;
      case RecType::kPageImage: {
        auto it = frames_.find(rec.pid);
        Frame* frame;
        if (it == frames_.end()) {
          auto created = std::make_unique<Frame>();
          created->pid = rec.pid;
          created->data.resize(store_->page_size());
          if (!store_->Read(rec.pid, created->data.data()).ok()) {
            created->data.assign(store_->page_size(), 0);
          }
          frame = created.get();
          frames_[rec.pid] = std::move(created);
        } else {
          frame = it->second.get();
        }
        if (PageOf(frame).dlsn() < lsn) {
          memcpy(frame->data.data(), rec.value.data(), frame->data.size());
          PageOf(frame).set_dlsn(lsn);
          frame->dirty = true;
        }
        break;
      }
      case RecType::kInsert:
      case RecType::kUpdate:
      case RecType::kDelete:
      case RecType::kClr: {
        if (rec.type != RecType::kClr && losers.count(rec.txn) > 0) {
          losers[rec.txn].push_back({rec.type, rec.table, rec.key,
                                     rec.before, rec.has_before});
        }
        StatusOr<Frame*> frame = GetFrame(rec.pid);
        if (!frame.ok()) continue;
        SlottedPage page = PageOf(*frame);
        if (page.dlsn() >= lsn) continue;  // already reflected
        bool found;
        const uint16_t slot = LeafLowerBound(page, rec.key, &found);
        LeafRecord lr;
        if (found) LeafRecord::Decode(page.PayloadAt(slot), &lr);
        const RecType effective =
            rec.type == RecType::kClr
                ? (rec.has_before ? RecType::kUpdate : RecType::kDelete)
                : rec.type;
        switch (effective) {
          case RecType::kInsert:
            if (!found) {
              LeafRecord fresh;
              fresh.key = rec.key;
              fresh.value = rec.value;
              page.InsertAt(slot, fresh.Encode());
            }
            break;
          case RecType::kUpdate:
            if (found) {
              lr.value = rec.value;
              page.ReplaceAt(slot, lr.Encode());
            }
            break;
          case RecType::kDelete:
            if (found) page.RemoveAt(slot);
            break;
          default:
            break;
        }
        page.set_dlsn(lsn);
        (*frame)->dirty = true;
        break;
      }
    }
  }

  // Rebuild the catalog from the (recovered) meta page.
  StatusOr<Frame*> meta = GetFrame(meta_pid_);
  if (meta.ok()) {
    SlottedPage page = PageOf(*meta);
    for (uint16_t i = 0; i < page.slot_count(); ++i) {
      Slice payload = page.PayloadAt(i);
      const TableId table = DecodeFixed32(payload.data());
      const PageId root = DecodeFixed32(payload.data() + 4);
      roots_[table] = root;
    }
  }

  // Undo losers (logical, CLR-logged).
  for (auto& [txn, chain] : losers) {
    for (auto e = chain.rbegin(); e != chain.rend(); ++e) {
      std::string before;
      bool had_before;
      switch (e->type) {
        case RecType::kInsert:
          ApplyWrite(txn, RecType::kDelete, e->table, e->key, "", &before,
                     &had_before);
          break;
        case RecType::kUpdate:
        case RecType::kDelete:
          if (e->type == RecType::kUpdate) {
            ApplyWrite(txn, RecType::kUpdate, e->table, e->key, e->before,
                       &before, &had_before);
          } else {
            ApplyWrite(txn, RecType::kInsert, e->table, e->key, e->before,
                       &before, &had_before);
          }
          break;
        default:
          break;
      }
    }
    LogRec abort_rec;
    abort_rec.type = RecType::kAbort;
    abort_rec.txn = txn;
    AppendRec(abort_rec);
  }
  log_.Force();
  return Status::OK();
}

Status MonolithicEngine::FlushAll() {
  std::lock_guard<std::mutex> guard(mu_);
  log_.Force();
  for (auto& [pid, frame] : frames_) {
    if (frame->dirty) {
      Status s = FlushFrameLocked(frame.get());
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

}  // namespace monolithic
}  // namespace untx
