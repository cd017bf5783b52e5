#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

// Days from 1970-01-01 to the proleptic Gregorian date y-m-d: count the
// days of whole years since year 0 (March-based, so the leap day ends a
// year), then the days into the current March-based year.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  if (m <= 2) --y;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t year_of_era = y - era * 400;
  const int64_t day_of_year = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const int64_t day_of_era = year_of_era * 365 + year_of_era / 4 -
                             year_of_era / 100 + day_of_year;
  return era * 146097 + day_of_era - 719468;
}

bool ParseChronon(const std::string& field, const char* variable,
                  int64_t sentinel, int64_t* out) {
  if (variable != nullptr && field == variable) {
    *out = sentinel;
    return true;
  }
  if (field.empty()) return false;
  if (field.find('/') != std::string::npos) {
    // The server renders chronons as mm/dd/yyyy dates.
    int month = 0;
    int day = 0;
    int year = 0;
    char extra = 0;
    if (std::sscanf(field.c_str(), "%d/%d/%d%c", &month, &day, &year,
                    &extra) != 3 ||
        month < 1 || month > 12 || day < 1 || day > 31) {
      return false;
    }
    *out = DaysFromCivil(year, month, day);
    return true;
  }
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

std::string FormatExtent(const Extent& e) {
  std::string out = std::to_string(e.tt_begin) + ", ";
  out += e.current() ? "UC" : std::to_string(e.tt_end);
  out += ", " + std::to_string(e.vt_begin) + ", ";
  out += e.now_relative() ? "NOW" : std::to_string(e.vt_end);
  return out;
}

bool ParseExtent(const std::string& text, Extent* out) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = text.find(',', start);
    fields.push_back(Trim(text.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (fields.size() != 4) return false;
  return ParseChronon(fields[0], nullptr, 0, &out->tt_begin) &&
         ParseChronon(fields[1], "UC", Extent::kUC, &out->tt_end) &&
         ParseChronon(fields[2], nullptr, 0, &out->vt_begin) &&
         ParseChronon(fields[3], "NOW", Extent::kNow, &out->vt_end);
}

int Fig2Case(const Extent& e) {
  if (!e.now_relative()) return e.current() ? 1 : 2;
  if (e.tt_begin == e.vt_begin) return e.current() ? 3 : 4;
  return e.current() ? 5 : 6;
}

bool Overlaps(const Extent& a, const Extent& b, int64_t ct) {
  // Transaction time: both intervals closed, UC read as ct.
  const int64_t a_tt_end = a.current() ? ct : a.tt_end;
  const int64_t b_tt_end = b.current() ? ct : b.tt_end;
  const int64_t tt_lo = std::max(a.tt_begin, b.tt_begin);
  const int64_t tt_hi = std::min(a_tt_end, b_tt_end);
  if (tt_lo > tt_hi) return false;
  // Valid time at transaction time tt runs from VTbegin to VTend, where a
  // NOW end is tt itself. Both tops are non-decreasing in tt, so the common
  // valid-time range is widest at the latest shared instant, tt_hi.
  const int64_t a_vt_top = a.now_relative() ? tt_hi : a.vt_end;
  const int64_t b_vt_top = b.now_relative() ? tt_hi : b.vt_end;
  return std::max(a.vt_begin, b.vt_begin) <= std::min(a_vt_top, b_vt_top);
}

}  // namespace perfbench
