#include "workload.h"

#include <algorithm>

namespace perfbench {

namespace {

Extent MakeVersion(Rng& rng, const HistoryShape& shape, int64_t tt_begin,
                   int64_t tt_end) {
  Extent e;
  e.tt_begin = tt_begin;
  e.tt_end = tt_end;
  if (rng.Chance(shape.now_share)) {
    // Valid until now: a stair. NOW needs VTbegin <= TTbegin.
    e.vt_end = Extent::kNow;
    e.vt_begin = rng.Chance(shape.high_step_share)
                     ? tt_begin - rng.Range(1, shape.vt_lag_days)
                     : tt_begin;
  } else {
    e.vt_begin = tt_begin - rng.Range(0, shape.vt_lag_days);
    e.vt_end = e.vt_begin + rng.Range(0, shape.vt_span_days);
  }
  return e;
}

}  // namespace

Extent NewVersion(Rng& rng, const HistoryShape& shape, int64_t ct) {
  return MakeVersion(rng, shape, ct, Extent::kUC);
}

Extent TimeSliceQuery(Rng& rng, const QueryShape& shape, int64_t tt) {
  Extent q;
  q.tt_begin = tt;
  q.tt_end = tt;
  q.vt_begin = tt - rng.Range(0, 3 * shape.slice_width_days);
  q.vt_end = q.vt_begin + rng.Range(0, shape.slice_width_days);
  return q;
}

Extent CurrentStairQuery(Rng& rng, const QueryShape& shape, int64_t ct) {
  Extent q;
  q.tt_begin = ct - rng.Range(0, shape.recent_days);
  q.tt_end = Extent::kUC;
  q.vt_begin = q.tt_begin - rng.Range(0, shape.recent_days);
  q.vt_end = Extent::kNow;
  return q;
}

Extent FrozenStairQuery(Rng& rng, const QueryShape& shape, int64_t tt) {
  Extent q;
  q.tt_begin = tt;
  q.tt_end = tt + rng.Range(0, shape.slice_width_days);
  q.vt_begin = tt - rng.Range(0, shape.slice_width_days);
  q.vt_end = Extent::kNow;
  return q;
}

uint64_t IdDigest(uint64_t id) {
  uint64_t z = id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Model::Generate(Rng& rng, const HistoryShape& shape) {
  ct_ = shape.start + shape.history_days;
  std::vector<Extent> versions;
  while (versions.size() < shape.rows) {
    // Entities are born in the first 60% of the history and change every
    // U(1, 2 * mean - 1) days; the last change before ct stays current.
    int64_t tt = shape.start + rng.Range(0, shape.history_days * 6 / 10);
    while (true) {
      const int64_t next = tt + rng.Range(1, 2 * shape.mean_version_days - 1);
      if (next >= ct_) {
        const bool deleted = rng.Chance(shape.deleted_share);
        versions.push_back(MakeVersion(
            rng, shape, tt, deleted ? rng.Range(tt, ct_ - 1) : Extent::kUC));
        break;
      }
      versions.push_back(MakeVersion(rng, shape, tt, next - 1));
      tt = next;
    }
  }
  // Rows arrive in transaction-time order, as a replayed log would add them.
  std::stable_sort(versions.begin(), versions.end(),
                   [](const Extent& a, const Extent& b) {
                     return a.tt_begin < b.tt_begin;
                   });
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  buckets_.clear();
  bucket_base_ = shape.start - shape.vt_lag_days;
  for (const Extent& e : versions) {
    Row row;
    row.extent = e;
    rows_.push_back(row);
    Index(rows_.size() - 1);
  }
  preloaded_ = rows_.size();
  max_len_ct_ = kNoCt;
  sent_ = 0;
  acked_ = 0;
}

void Model::Index(uint64_t id) {
  const int64_t b = (rows_[id].extent.tt_begin - bucket_base_) / kBucketDays;
  if (static_cast<size_t>(b) >= buckets_.size()) buckets_.resize(b + 1);
  buckets_[b].push_back(static_cast<uint32_t>(id));
}

std::string Model::LoadFile() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(rows_.size() * 32);
  for (size_t id = 0; id < preloaded_; ++id) {
    out += std::to_string(id);
    out += '|';
    out += FormatExtent(rows_[id].extent);
    out += '\n';
  }
  return out;
}

uint64_t Model::BeginInsert(const Extent& extent) {
  std::lock_guard<std::mutex> lock(mu_);
  Row row;
  row.extent = extent;
  row.insert_sent = ++sent_;
  row.insert_ack = kNever;
  rows_.push_back(row);
  Index(rows_.size() - 1);
  max_len_ct_ = kNoCt;
  return rows_.size() - 1;
}

void Model::BeginFreeze(uint64_t id, int64_t frozen_tt_end) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[id].freeze_sent = ++sent_;
  rows_[id].frozen_tt_end = frozen_tt_end;
  max_len_ct_ = kNoCt;
}

void Model::AckInsert(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[id].insert_ack = ++acked_;
}

void Model::AckFreeze(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[id].freeze_ack = ++acked_;
}

uint64_t Model::sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sent_;
}

uint64_t Model::acked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

std::vector<uint64_t> Model::Updatable(int64_t ct) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (size_t id = 0; id < rows_.size(); ++id) {
    const Row& r = rows_[id];
    if (r.extent.current() && r.freeze_sent == kNever &&
        r.extent.tt_begin < ct) {
      out.push_back(id);
    }
  }
  return out;
}

uint64_t Model::RowCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = preloaded_;
  for (size_t id = preloaded_; id < rows_.size(); ++id) {
    if (rows_[id].insert_ack != kNever) ++n;
  }
  return n;
}

void Model::Answer(const Extent& query, int64_t ct, uint64_t acked_before,
                   uint64_t sent_before_reply, std::vector<uint32_t>* required,
                   std::vector<uint32_t>* allowed) const {
  std::lock_guard<std::mutex> lock(mu_);
  required->clear();
  allowed->clear();
  // Rows that can share a transaction-time instant with the query began at
  // or before its end and at most max_len days before its start.
  if (max_len_ct_ != ct) {
    max_len_ = 0;
    for (const Row& r : rows_) {
      const int64_t end = r.extent.current() ? ct : r.extent.tt_end;
      max_len_ = std::max(max_len_, end - r.extent.tt_begin);
    }
    max_len_ct_ = ct;
  }
  const int64_t max_len = max_len_;
  const int64_t q_end = query.current() ? ct : query.tt_end;
  const int64_t first =
      std::max<int64_t>(0, (query.tt_begin - max_len - bucket_base_) / kBucketDays);
  const int64_t last = std::min<int64_t>(
      static_cast<int64_t>(buckets_.size()) - 1,
      (q_end - bucket_base_) / kBucketDays);
  for (int64_t b = first; b <= last; ++b) {
    for (uint32_t id : buckets_[b]) {
      const Row& r = rows_[id];
      const bool preloaded = id < preloaded_;
      if (!preloaded && r.insert_sent > sent_before_reply) continue;
      const bool surely_there = preloaded || r.insert_ack <= acked_before;
      const bool surely_frozen = r.freeze_ack <= acked_before;
      const bool maybe_frozen = r.freeze_sent <= sent_before_reply;
      const bool plain = Overlaps(r.extent, query, ct);
      const bool frozen = maybe_frozen && Overlaps(r.Frozen(), query, ct);
      bool all;
      bool any;
      if (surely_frozen) {
        all = any = frozen;
      } else if (maybe_frozen) {
        all = plain && frozen;
        any = plain || frozen;
      } else {
        all = any = plain;
      }
      if (any) allowed->push_back(id);
      if (all && surely_there) required->push_back(id);
    }
  }
  std::sort(required->begin(), required->end());
  std::sort(allowed->begin(), allowed->end());
}

}  // namespace perfbench
