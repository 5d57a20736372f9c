#include "dc/ab_lsn.h"

#include <algorithm>

#include "common/coding.h"

namespace untx {

bool AbstractLsn::Covers(Lsn lsn) const {
  if (lsn <= lw_) return true;
  return std::binary_search(in_.begin(), in_.end(), lsn);
}

void AbstractLsn::Add(Lsn lsn) {
  if (Covers(lsn)) return;
  auto it = std::lower_bound(in_.begin(), in_.end(), lsn);
  in_.insert(it, lsn);
}

void AbstractLsn::AdvanceTo(Lsn lwm) {
  if (lwm <= lw_) return;
  lw_ = lwm;
  auto it = std::upper_bound(in_.begin(), in_.end(), lw_);
  in_.erase(in_.begin(), it);
}

Lsn AbstractLsn::MaxCovered() const {
  return in_.empty() ? lw_ : in_.back();
}

void AbstractLsn::MergeFrom(const AbstractLsn& other) {
  std::vector<Lsn> merged;
  merged.reserve(in_.size() + other.in_.size());
  std::set_union(in_.begin(), in_.end(), other.in_.begin(), other.in_.end(),
                 std::back_inserter(merged));
  in_ = std::move(merged);
  AdvanceTo(other.lw_);  // also prunes entries <= the new lw
}

void AbstractLsn::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lw_);
  PutVarint32(dst, static_cast<uint32_t>(in_.size()));
  // Delta-encode the in-set relative to lw_ (it is sorted and > lw_).
  Lsn prev = lw_;
  for (Lsn l : in_) {
    PutVarint64(dst, l - prev);
    prev = l;
  }
}

bool AbstractLsn::DecodeFrom(Slice* input, AbstractLsn* out) {
  uint64_t lw;
  uint32_t n;
  if (!GetVarint64(input, &lw)) return false;
  if (!GetVarint32(input, &n)) return false;
  out->lw_ = lw;
  out->in_.clear();
  // Capped: a count from the input never sizes more than it holds.
  out->in_.reserve(std::min<size_t>(n, input->size()));
  Lsn prev = lw;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t delta;
    if (!GetVarint64(input, &delta)) return false;
    if (delta == 0) return false;  // strictly ascending
    prev += delta;
    out->in_.push_back(prev);
  }
  return true;
}

size_t AbstractLsn::EncodedSize() const {
  size_t n = VarintLength(lw_) + VarintLength(in_.size());
  Lsn prev = lw_;
  for (Lsn l : in_) {
    n += VarintLength(l - prev);
    prev = l;
  }
  return n;
}

// ---- PageAbLsn --------------------------------------------------------------

namespace {
auto FindEntry(std::vector<std::pair<TcId, AbstractLsn>>& entries, TcId tc) {
  return std::lower_bound(
      entries.begin(), entries.end(), tc,
      [](const auto& e, TcId t) { return e.first < t; });
}
auto FindEntryConst(const std::vector<std::pair<TcId, AbstractLsn>>& entries,
                    TcId tc) {
  return std::lower_bound(
      entries.begin(), entries.end(), tc,
      [](const auto& e, TcId t) { return e.first < t; });
}
}  // namespace

bool PageAbLsn::Covers(TcId tc, Lsn lsn) const {
  const AbstractLsn* ab = Find(tc);
  return ab != nullptr && ab->Covers(lsn);
}

void PageAbLsn::Add(TcId tc, Lsn lsn) {
  auto it = FindEntry(entries_, tc);
  if (it == entries_.end() || it->first != tc) {
    it = entries_.insert(it, {tc, AbstractLsn()});
  }
  it->second.Add(lsn);
}

void PageAbLsn::AdvanceTo(TcId tc, Lsn lwm) {
  AbstractLsn* ab = FindMutable(tc);
  if (ab != nullptr) ab->AdvanceTo(lwm);
}

Lsn PageAbLsn::MaxCoveredAll() const {
  Lsn max = 0;
  for (const auto& [tc, ab] : entries_) {
    max = std::max(max, ab.MaxCovered());
  }
  return max;
}

Lsn PageAbLsn::MaxCoveredFor(TcId tc) const {
  const AbstractLsn* ab = Find(tc);
  return ab == nullptr ? 0 : ab->MaxCovered();
}

bool PageAbLsn::CollapsedAll() const {
  for (const auto& [tc, ab] : entries_) {
    if (!ab.Collapsed()) return false;
  }
  return true;
}

size_t PageAbLsn::TotalInSetSize() const {
  size_t n = 0;
  for (const auto& [tc, ab] : entries_) n += ab.in_set_size();
  return n;
}

bool PageAbLsn::HasTc(TcId tc) const { return Find(tc) != nullptr; }

const AbstractLsn* PageAbLsn::Find(TcId tc) const {
  auto it = FindEntryConst(entries_, tc);
  if (it == entries_.end() || it->first != tc) return nullptr;
  return &it->second;
}

AbstractLsn* PageAbLsn::FindMutable(TcId tc) {
  auto it = FindEntry(entries_, tc);
  if (it == entries_.end() || it->first != tc) return nullptr;
  return &it->second;
}

void PageAbLsn::Set(TcId tc, AbstractLsn ab) {
  auto it = FindEntry(entries_, tc);
  if (it == entries_.end() || it->first != tc) {
    entries_.insert(it, {tc, std::move(ab)});
  } else {
    it->second = std::move(ab);
  }
}

void PageAbLsn::Erase(TcId tc) {
  auto it = FindEntry(entries_, tc);
  if (it != entries_.end() && it->first == tc) entries_.erase(it);
}

void PageAbLsn::MergeFrom(const PageAbLsn& other) {
  for (const auto& [tc, ab] : other.entries_) {
    AbstractLsn* mine = FindMutable(tc);
    if (mine == nullptr) {
      Set(tc, ab);
    } else {
      mine->MergeFrom(ab);
    }
  }
}

void PageAbLsn::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(entries_.size()));
  for (const auto& [tc, ab] : entries_) {
    PutFixed16(dst, tc);
    ab.EncodeTo(dst);
  }
}

bool PageAbLsn::DecodeFrom(Slice* input, PageAbLsn* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->entries_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t tc;
    AbstractLsn ab;
    if (!GetFixed16(input, &tc)) return false;
    if (!AbstractLsn::DecodeFrom(input, &ab)) return false;
    out->entries_.emplace_back(tc, std::move(ab));
  }
  return true;
}

size_t PageAbLsn::EncodedSize() const {
  size_t n = VarintLength(entries_.size());
  for (const auto& [tc, ab] : entries_) {
    n += sizeof(uint16_t) + ab.EncodedSize();
  }
  return n;
}

}  // namespace untx
