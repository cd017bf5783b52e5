#include "layers.h"

#include <algorithm>

#include "obs/fast_clock.h"

namespace perfbench {

using grtdb::obs::SpanName;
using grtdb::obs::SpanRecord;

void SpanLedger::Drain(const grtdb::obs::SpanTracer& tracer) {
  std::vector<SpanRecord> spans = tracer.Snapshot();
  for (SpanRecord& span : spans) {
    if (span.seq < next_seq_) continue;
    lost_ += span.seq - next_seq_;
    next_seq_ = span.seq + 1;
    const bool root = span.name == SpanName::kRequest && span.parent_id == 0;
    std::vector<SpanRecord>& open = open_[span.trace_id];
    open.push_back(span);
    if (root) {
      Fold(span.trace_id, &open);
      open_.erase(span.trace_id);
    }
  }
}

size_t SpanLedger::pending() const {
  size_t n = 0;
  for (const auto& [id, spans] : open_) n += spans.size();
  return n;
}

void SpanLedger::Fold(uint64_t trace_id, std::vector<SpanRecord>* spans) {
  const double us_per_tick = grtdb::obs::NsPerTick() / 1000.0;
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, double> covered;  // span id -> child ticks
  for (const SpanRecord& s : *spans) by_id[s.span_id] = &s;
  for (const SpanRecord& s : *spans) {
    auto parent = by_id.find(s.parent_id);
    if (parent == by_id.end()) continue;
    // Clamp to the parent: the accept-queue wait starts before the root.
    const uint64_t lo = std::max(s.start_ticks, parent->second->start_ticks);
    const uint64_t hi = std::min(s.end_ticks, parent->second->end_ticks);
    if (hi > lo) covered[s.parent_id] += static_cast<double>(hi - lo);
  }
  RequestCost cost;
  for (const SpanRecord& s : *spans) {
    const size_t n = static_cast<size_t>(s.name);
    if (n >= grtdb::obs::kSpanNameCount) continue;
    const double ticks = static_cast<double>(s.end_ticks - s.start_ticks);
    const double self = std::max(0.0, ticks - covered[s.span_id]);
    cost.self_us[n] += self * us_per_tick;
    cost.total_us[n] += ticks * us_per_tick;
    if (s.name == SpanName::kRequest && s.parent_id == 0) {
      cost.request_us = ticks * us_per_tick;
    }
    if (s.name == SpanName::kPurpose && s.a < grtdb::obs::kPurposeFnCount) {
      cost.purpose_us[s.a] += ticks * us_per_tick;
      ++cost.purpose_calls[s.a];
    }
  }
  traces_[trace_id] = cost;
}

}  // namespace perfbench
