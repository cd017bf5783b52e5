// Independent reference for the benchmark's answers: the 4TS time extent
// and its Overlaps predicate, written from the paper's §2 definition
// without any grtdb code, so a fault in the program's temporal layer
// cannot also hide in the oracle that checks it.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>

namespace perfbench {

// [TTbegin, TTend] x [VTbegin, VTend] over integer chronons (days), closed
// intervals. TTend may be the variable UC ("until changed") and VTend the
// variable NOW; both are encoded as sentinels far above any chronon.
struct Extent {
  static constexpr int64_t kUC = INT64_MAX;
  static constexpr int64_t kNow = INT64_MAX - 1;

  int64_t tt_begin = 0;
  int64_t tt_end = 0;
  int64_t vt_begin = 0;
  int64_t vt_end = 0;

  bool current() const { return tt_end == kUC; }
  bool now_relative() const { return vt_end == kNow; }
};

// "TTbegin, TTend, VTbegin, VTend" with UC/NOW spelled out, the literal
// form the GR-tree DataBlade's grt_timeextent type reads and prints.
std::string FormatExtent(const Extent& e);
// Parses FormatExtent's output (and the server's rendering of it).
bool ParseExtent(const std::string& text, Extent* out);

// Fig. 2's six shapes: 1 growing rectangle, 2 static rectangle, 3 growing
// stair (TTbegin = VTbegin), 4 frozen stair, 5 growing stair with a high
// first step (TTbegin > VTbegin), 6 frozen stair with a high first step.
int Fig2Case(const Extent& e);

// True when the regions of `a` and `b` share a point at current time `ct`.
// Per §2, TTend = UC stands for ct, and VTend = NOW makes the region a
// stair: at each transaction time tt the fact is valid up to tt itself.
bool Overlaps(const Extent& a, const Extent& b, int64_t ct);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
