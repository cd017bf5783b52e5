// Per-layer attribution for the traced run: folds the server's span tree of
// every traced request into per-request costs by layer, so the benchmark
// can join them with the round trip its client measured for the same
// trace id.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/query_profile.h"
#include "obs/span_tracer.h"

namespace perfbench {

// One traced request, as the server's spans describe it. Times are in
// microseconds. A span's self time is its duration minus the part of it
// its direct children cover.
struct RequestCost {
  double request_us = 0;
  double self_us[grtdb::obs::kSpanNameCount] = {};
  double total_us[grtdb::obs::kSpanNameCount] = {};
  double purpose_us[grtdb::obs::kPurposeFnCount] = {};
  uint32_t purpose_calls[grtdb::obs::kPurposeFnCount] = {};
};

// Collects finished traces from the span tracer's ring. The ring only has
// to hold what arrives between two Drain calls: every call reads the spans
// admitted since the previous one (by their sequence numbers), and a trace
// is folded once its root request span, which closes last, has arrived.
class SpanLedger {
 public:
  void Drain(const grtdb::obs::SpanTracer& tracer);

  // Folded traces by trace id.
  const std::unordered_map<uint64_t, RequestCost>& traces() const {
    return traces_;
  }
  // Spans the ring dropped before a Drain read them; nonzero means the
  // ring was too small for the drain interval.
  uint64_t lost() const { return lost_; }
  // Spans still waiting for their root.
  size_t pending() const;

 private:
  void Fold(uint64_t trace_id, std::vector<grtdb::obs::SpanRecord>* spans);

  uint64_t next_seq_ = 0;
  uint64_t lost_ = 0;
  std::unordered_map<uint64_t, std::vector<grtdb::obs::SpanRecord>> open_;
  std::unordered_map<uint64_t, RequestCost> traces_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
