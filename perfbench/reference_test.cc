// Unit test of the benchmark's Overlaps reference: hand-worked cases over
// all six region shapes of the paper's Fig. 2, then a rasterized
// brute-force cross-check on small random extents. Exits non-zero on the
// first disagreement. Run by perfbench/run.py after every build.
#include <cstdint>
#include <cstdio>
#include <string>

#include "reference.h"

namespace {

using perfbench::Extent;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "reference_test: FAILED %s\n", what.c_str());
  }
}

Extent E(int64_t ttb, int64_t tte, int64_t vtb, int64_t vte) {
  return Extent{ttb, tte, vtb, vte};
}

constexpr int64_t UC = Extent::kUC;
constexpr int64_t NOW = Extent::kNow;

void Case(const Extent& data, const Extent& query, int64_t ct, bool want) {
  const std::string what = "Overlaps(" + perfbench::FormatExtent(data) +
                           " | " + perfbench::FormatExtent(query) +
                           " @ct=" + std::to_string(ct) + ") == " +
                           (want ? "true" : "false");
  Expect(perfbench::Overlaps(data, query, ct) == want, what);
  Expect(perfbench::Overlaps(query, data, ct) == want, "symmetric " + what);
}

// Point membership straight from §2: tt within [TTbegin, TTend or ct],
// vt within [VTbegin, VTend or tt].
bool Contains(const Extent& e, int64_t ct, int64_t tt, int64_t vt) {
  const int64_t tt_end = e.current() ? ct : e.tt_end;
  if (tt < e.tt_begin || tt > tt_end) return false;
  const int64_t vt_end = e.now_relative() ? tt : e.vt_end;
  return vt >= e.vt_begin && vt <= vt_end;
}

uint64_t rng_state = 0x9e3779b97f4a7c15ull;
int64_t Rand(int64_t lo, int64_t hi) {
  rng_state ^= rng_state << 13;
  rng_state ^= rng_state >> 7;
  rng_state ^= rng_state << 17;
  return lo + static_cast<int64_t>(rng_state %
                                   static_cast<uint64_t>(hi - lo + 1));
}

Extent RandomExtent(int64_t ct) {
  Extent e;
  e.tt_begin = Rand(0, ct);
  e.tt_end = Rand(0, 2) == 0 ? UC : Rand(e.tt_begin, ct);
  if (Rand(0, 1) == 0) {
    e.vt_begin = Rand(0, e.tt_begin);  // NOW requires VTbegin <= TTbegin
    e.vt_end = NOW;
  } else {
    e.vt_begin = Rand(0, ct + 5);
    e.vt_end = Rand(e.vt_begin, ct + 10);
  }
  return e;
}

}  // namespace

int main() {
  const int64_t ct = 100;
  // One extent per Fig. 2 case.
  const Extent c1 = E(10, UC, 20, 30);   // growing rectangle
  const Extent c2 = E(10, 50, 20, 30);   // static rectangle
  const Extent c3 = E(40, UC, 40, NOW);  // growing stair
  const Extent c4 = E(40, 60, 40, NOW);  // frozen stair
  const Extent c5 = E(40, UC, 25, NOW);  // growing stair, high first step
  const Extent c6 = E(40, 60, 25, NOW);  // frozen stair, high first step
  const Extent all[] = {c1, c2, c3, c4, c5, c6};
  for (int i = 0; i < 6; ++i) {
    Expect(perfbench::Fig2Case(all[i]) == i + 1,
           "Fig2Case(" + perfbench::FormatExtent(all[i]) + ") == " +
               std::to_string(i + 1));
    Extent parsed;
    Expect(perfbench::ParseExtent(perfbench::FormatExtent(all[i]), &parsed) &&
               parsed.tt_begin == all[i].tt_begin &&
               parsed.tt_end == all[i].tt_end &&
               parsed.vt_begin == all[i].vt_begin &&
               parsed.vt_end == all[i].vt_end,
           "round trip of " + perfbench::FormatExtent(all[i]));
  }

  // The server's rendering: chronons are days since 1970-01-01, printed
  // as mm/dd/yyyy.
  const struct {
    const char* text;
    int64_t tt_begin, tt_end, vt_begin, vt_end;
  } rendered[] = {
      {"12/10/1995, UC, 12/10/1995, NOW", 9474, UC, 9474, NOW},
      {"02/29/2000, 10/19/2026, 12/31/1969, 01/01/1970", 11016, 20745, -1, 0},
      {"10000, UC, 9990, NOW", 10000, UC, 9990, NOW},
  };
  for (const auto& r : rendered) {
    Extent parsed;
    Expect(perfbench::ParseExtent(r.text, &parsed) &&
               parsed.tt_begin == r.tt_begin && parsed.tt_end == r.tt_end &&
               parsed.vt_begin == r.vt_begin && parsed.vt_end == r.vt_end,
           std::string("parse of '") + r.text + "'");
  }
  Extent bad;
  Expect(!perfbench::ParseExtent("10000, UC, 9990", &bad), "three fields");
  Expect(!perfbench::ParseExtent("13/01/2000, UC, 1, NOW", &bad), "month 13");

  // Bitemporal point (tt 50, vt 35): below the rectangles' valid-time top
  // and under the diagonal, but above the low stairs' first step.
  const Extent p50_35 = E(50, 50, 35, 35);
  Case(c1, p50_35, ct, false);
  Case(c2, p50_35, ct, false);
  Case(c3, p50_35, ct, false);  // at tt 50 valid time spans [40, 50]
  Case(c4, p50_35, ct, false);
  Case(c5, p50_35, ct, true);   // at tt 50 valid time spans [25, 50]
  Case(c6, p50_35, ct, true);

  // Just under the diagonal, then just above it: the stair edge.
  const Extent p45_44 = E(45, 45, 44, 44);
  const Extent p45_46 = E(45, 45, 46, 46);
  for (const Extent& stair : {c3, c4, c5, c6}) {
    Case(stair, p45_44, ct, true);
    Case(stair, p45_46, ct, false);
  }
  Case(c1, p45_44, ct, false);
  Case(c2, p45_44, ct, false);

  // After the frozen shapes stopped: only the growing ones reach tt 70.
  const Extent p70_65 = E(70, 70, 65, 65);
  Case(c3, p70_65, ct, true);
  Case(c4, p70_65, ct, false);
  Case(c5, p70_65, ct, true);
  Case(c6, p70_65, ct, false);
  Case(c2, E(70, 70, 25, 25), ct, false);
  Case(c1, E(70, 70, 25, 25), ct, true);

  // UC reads as the current time: tt 100 is inside at ct 100, not at 99.
  const Extent p100_25 = E(100, 100, 25, 25);
  Case(c1, p100_25, 100, true);
  Case(c1, p100_25, 99, false);
  Case(c5, p100_25, 100, true);
  Case(c5, p100_25, 99, false);

  // Rectangle queries against the stair top, which is tt at each tt.
  Case(c3, E(55, 58, 59, 70), ct, false);  // top at tt 58 is 58 < 59
  Case(c4, E(55, 58, 59, 70), ct, false);
  Case(c3, E(55, 65, 59, 70), ct, true);   // tt 59..65 reaches vt 59
  Case(c4, E(55, 65, 59, 70), ct, true);   // frozen at 60 >= 59
  Case(c4, E(55, 65, 61, 70), ct, false);  // frozen at 60 < 61
  Case(c6, E(55, 65, 59, 70), ct, true);

  // Stair queries (a "current state" query [q, UC] x [v, NOW]).
  const Extent stair_q = E(80, UC, 75, NOW);
  Case(c3, stair_q, ct, true);
  Case(c4, stair_q, ct, false);           // stopped at tt 60
  Case(c1, stair_q, ct, false);           // valid time ends at 30 < 75
  Case(E(10, UC, 20, 80), stair_q, ct, true);
  // A stair query only reaches vt 90 by tt 90, so a rectangle ending at tt
  // 90 with valid time from 95 up is missed although the boxes overlap.
  Case(E(10, 90, 0, 200), E(80, UC, 95, NOW), ct, false);
  Case(E(10, 95, 0, 200), E(80, UC, 95, NOW), ct, true);

  // Rasterized brute force on small extents: the predicate must agree
  // with point membership everywhere.
  for (int trial = 0; trial < 20000; ++trial) {
    const int64_t now = Rand(5, 24);
    const Extent a = RandomExtent(now);
    const Extent b = RandomExtent(now);
    bool brute = false;
    for (int64_t tt = 0; tt <= now && !brute; ++tt) {
      for (int64_t vt = 0; vt <= now + 10 && !brute; ++vt) {
        brute = Contains(a, now, tt, vt) && Contains(b, now, tt, vt);
      }
    }
    if (perfbench::Overlaps(a, b, now) != brute) {
      Case(a, b, now, brute);  // reports the disagreement
      break;
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "reference_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("reference_test: OK\n");
  return 0;
}
