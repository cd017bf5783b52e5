// Inputs and the model of the benchmark: a seeded generator of bitemporal
// histories and Overlaps queries in the 4TS format, and the record of every
// row version the benchmark has written, against which each SELECT's
// answer is checked with the independent reference in reference.h.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

// splitmix64: small, fast and identical on every platform, so a seed names
// the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

// The shape of a generated bitemporal relation: entities whose attribute
// changes over transaction time, one version per change (§2: a logical
// update freezes the current version at ct - 1 and inserts its successor at
// ct). An entity's last version stays current (TTend = UC) unless the
// entity was logically deleted.
struct HistoryShape {
  uint64_t rows = 20000;           // versions to generate (at least)
  int64_t start = 10000;           // first transaction time (chronons)
  int64_t history_days = 3650;     // the history ends at current time
  int64_t mean_version_days = 20;  // version lifetimes ~ U(1, 2 * mean - 1)
  double now_share = 0.4;          // versions with VTend = NOW (stairs)
  double high_step_share = 0.5;    // of those, VTbegin < TTbegin (cases 5/6)
  double deleted_share = 0.15;     // entities whose last version is frozen
  int64_t vt_lag_days = 90;        // VTbegin lies up to this far before TT
  int64_t vt_span_days = 120;      // ground valid-time interval lengths
};

// The kinds of query the workloads issue.
struct QueryShape {
  // TTbegin of recent queries lies in [ct - recent_days, ct].
  int64_t recent_days = 10;
  // Valid-time window widths of time-slice queries.
  int64_t slice_width_days = 20;
};

// Extent for a new current version inserted at `ct` (TTbegin = ct).
Extent NewVersion(Rng& rng, const HistoryShape& shape, int64_t ct);

// A time-slice query [tt, tt] x [v, v + w] as of a past transaction time.
Extent TimeSliceQuery(Rng& rng, const QueryShape& shape, int64_t tt);
// A current-state stair [tt, UC] x [v, NOW] over the recent past.
Extent CurrentStairQuery(Rng& rng, const QueryShape& shape, int64_t ct);
// A frozen stair [tt, tt + d] x [v, NOW] anywhere in the history.
Extent FrozenStairQuery(Rng& rng, const QueryShape& shape, int64_t tt);

// Every row version the benchmark put into the table, with when each write
// was sent and acknowledged. Preloaded rows are acknowledged before
// anything else. Sequence numbers count writes in the order they were
// sent and in the order their acknowledgements arrived; a SELECT records
// both counters when it is sent and when its reply arrives, which is all
// the check needs to know which writes it must, may or must not see.
class Model {
 public:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  struct Row {
    Extent extent;  // as inserted
    uint64_t insert_sent = 0;
    uint64_t insert_ack = 0;
    // Logical deletion by UPDATE: TTend goes from UC to frozen_tt_end.
    uint64_t freeze_sent = kNever;
    uint64_t freeze_ack = kNever;
    int64_t frozen_tt_end = 0;
    Extent Frozen() const {
      Extent e = extent;
      e.tt_end = frozen_tt_end;
      return e;
    }
  };

  // Generates the preloaded relation (current time of its end: ct()).
  void Generate(Rng& rng, const HistoryShape& shape);
  int64_t ct() const { return ct_; }
  uint64_t preloaded() const { return preloaded_; }

  // The LOAD file body: "id|extent" per line.
  std::string LoadFile() const;

  // Writes are registered before they are sent and acknowledged after the
  // reply; both are thread-safe.
  uint64_t BeginInsert(const Extent& extent);  // returns the new row id
  void BeginFreeze(uint64_t id, int64_t frozen_tt_end);
  void AckInsert(uint64_t id);
  void AckFreeze(uint64_t id);
  uint64_t sent() const;
  uint64_t acked() const;

  // Rows that currently hold TTend = UC and can be frozen at `ct`.
  std::vector<uint64_t> Updatable(int64_t ct) const;

  // Rows acknowledged so far (preloaded + acknowledged inserts).
  uint64_t RowCount() const;

  // The row's state once every acknowledged write is applied.
  const Row& row(uint64_t id) const { return rows_[id]; }
  size_t size() const { return rows_.size(); }

  // What a SELECT sent after `acked_before` acknowledgements and answered
  // before `sent_before_reply` writes had been sent may return for `query`
  // at current time `ct`: `required` rows match whatever the unfinished
  // writes did; `allowed` rows match in at least one outcome. Call only
  // once the writers have stopped.
  void Answer(const Extent& query, int64_t ct, uint64_t acked_before,
              uint64_t sent_before_reply, std::vector<uint32_t>* required,
              std::vector<uint32_t>* allowed) const;

 private:
  mutable std::mutex mu_;
  std::vector<Row> rows_;
  uint64_t preloaded_ = 0;
  uint64_t sent_ = 0;
  uint64_t acked_ = 0;
  int64_t ct_ = 0;
  // Candidate pruning for Answer: rows bucketed by TTbegin, which no write
  // changes, plus the longest transaction-time extent seen.
  static constexpr int64_t kBucketDays = 32;
  int64_t bucket_base_ = 0;
  std::vector<std::vector<uint32_t>> buckets_;
  static constexpr int64_t kNoCt = std::numeric_limits<int64_t>::min();
  mutable int64_t max_len_ct_ = kNoCt;  // max_len_ holds for this ct
  mutable int64_t max_len_ = 0;
  void Index(uint64_t id);
};

// Order-independent digest of an id set, so a SELECT's answer can be kept
// as (count, digest) instead of the ids themselves.
uint64_t IdDigest(uint64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
