// Civil-time helpers for UNIX timestamps.
//
// The archive layout, broker queries and BGPCorsaro time bins all work in
// UTC epoch seconds. These helpers convert to/from civil dates without
// relying on the C locale machinery (no timezones: everything is UTC,
// like MRT timestamps).
#pragma once

#include <cfloat>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace bgps {

using Timestamp = int64_t;  // UTC epoch seconds

struct CivilTime {
  int year;
  int month;  // 1..12
  int day;    // 1..31
  int hour;   // 0..23
  int minute; // 0..59
  int second; // 0..59
};

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int y, int m, int d);
CivilTime CivilFromTimestamp(Timestamp ts);
Timestamp TimestampFromCivil(const CivilTime& c);
Timestamp TimestampFromYmdHms(int y, int mo, int d, int h, int mi, int s);

// "YYYY-MM-DD HH:MM:SS" (UTC).
std::string FormatTimestamp(Timestamp ts);

// Half-open interval [start, end). end == kLiveEnd means "live mode".
inline constexpr Timestamp kLiveEnd = -1;

struct TimeInterval {
  Timestamp start = 0;
  Timestamp end = 0;  // exclusive; kLiveEnd for live mode

  bool live() const { return end == kLiveEnd; }
  bool contains(Timestamp t) const {
    return t >= start && (live() || t < end);
  }
  bool overlaps(Timestamp s, Timestamp e) const {
    // [s, e) vs [start, end)
    if (live()) return e > start;
    return s < end && e > start;
  }
};

// Parses a command-line time window "START[,END]" of UNIX seconds (the
// tools' -w argument). Each token must be a whole non-negative decimal
// integer, and END, when given, must be > START; without END the
// interval is live (end == kLiveEnd). Errors quote the offending token.
Result<TimeInterval> ParseTimeWindow(std::string_view text);

// Parses a command-line count flag's value (bgpreader -n, --pool-*):
// the same whole-token rule as ParseTimeWindow — one non-negative
// decimal integer, no sign, no trailing text, no overflow. The error
// names the flag and quotes the token. A value above `max` (the largest
// the flag's field holds) fails with "<flag> is out of range".
Result<size_t> ParseCountFlag(std::string_view flag, std::string_view token,
                              size_t max = SIZE_MAX);

// Parses a command-line real-valued flag's value (--speedup,
// --flaps-per-hour, --pool-stats-interval) by the same whole-token
// rule: one finite decimal number, no trailing text. "nan", "inf" and
// "2x" fail with "<flag> must be a finite number, got \"<token>\"". The
// value must be > 0, or >= 0 with `allow_zero`; otherwise the error is
// "<flag> must be > 0" (or ">= 0"), followed by " <unit>" when given.
// A value above `max` (the largest the flag's use can take) fails with
// "<flag> is out of range".
Result<double> ParseRealFlag(std::string_view flag, std::string_view token,
                             bool allow_zero = false,
                             std::string_view unit = {},
                             double max = DBL_MAX);

// Aligns `ts` down to a multiple of `bin` seconds.
inline Timestamp AlignToBin(Timestamp ts, Timestamp bin) {
  return (ts / bin) * bin;
}

}  // namespace bgps
