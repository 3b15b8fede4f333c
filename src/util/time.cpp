#include "util/time.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>

namespace bgps {

namespace {

// The whole of `s` as a non-negative decimal integer, or nullopt.
template <typename T>
std::optional<T> ParseWholeNumber(std::string_view s) {
  T v = 0;
  const char* end = s.data() + s.size();
  if (s.empty() || s.front() == '-') return std::nullopt;
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

Result<TimeInterval> ParseTimeWindow(std::string_view text) {
  size_t comma = text.find(',');
  std::string_view start_token = text.substr(0, comma);
  std::optional<Timestamp> start = ParseWholeNumber<Timestamp>(start_token);
  if (!start)
    return InvalidArgument("START must be whole UNIX seconds, got \"" +
                           std::string(start_token) + "\"");
  if (comma == std::string_view::npos) return TimeInterval{*start, kLiveEnd};
  std::string_view end_token = text.substr(comma + 1);
  std::optional<Timestamp> end = ParseWholeNumber<Timestamp>(end_token);
  if (!end)
    return InvalidArgument("END must be whole UNIX seconds, got \"" +
                           std::string(end_token) + "\"");
  if (*end <= *start) return InvalidArgument("window must have END > START");
  return TimeInterval{*start, *end};
}

Result<size_t> ParseCountFlag(std::string_view flag, std::string_view token,
                              size_t max) {
  std::optional<size_t> n = ParseWholeNumber<size_t>(token);
  if (!n)
    return InvalidArgument(std::string(flag) +
                           " must be a whole non-negative number, got \"" +
                           std::string(token) + "\"");
  if (*n > max) return InvalidArgument(std::string(flag) + " is out of range");
  return *n;
}

Result<double> ParseRealFlag(std::string_view flag, std::string_view token,
                             bool allow_zero, std::string_view unit,
                             double max) {
  double v = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (token.empty() || ec != std::errc() || ptr != end || !std::isfinite(v))
    return InvalidArgument(std::string(flag) +
                           " must be a finite number, got \"" +
                           std::string(token) + "\"");
  if (allow_zero ? v < 0 : v <= 0) {
    std::string msg = std::string(flag) + (allow_zero ? " must be >= 0"
                                                      : " must be > 0");
    if (!unit.empty()) msg += " " + std::string(unit);
    return InvalidArgument(msg);
  }
  if (v > max) return InvalidArgument(std::string(flag) + " is out of range");
  return v;
}

int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = unsigned(y - era * 400);
  const unsigned doy = (153u * unsigned(m + (m > 2 ? -3 : 9)) + 2) / 5 + unsigned(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + int64_t(doe) - 719468;
}

CivilTime CivilFromTimestamp(Timestamp ts) {
  int64_t days = ts / 86400;
  int64_t secs = ts % 86400;
  if (secs < 0) {
    secs += 86400;
    --days;
  }
  // Inverse of DaysFromCivil.
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = unsigned(days - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = int64_t(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;
  CivilTime c;
  c.year = int(y + (m <= 2));
  c.month = int(m);
  c.day = int(d);
  c.hour = int(secs / 3600);
  c.minute = int((secs % 3600) / 60);
  c.second = int(secs % 60);
  return c;
}

Timestamp TimestampFromCivil(const CivilTime& c) {
  return DaysFromCivil(c.year, c.month, c.day) * 86400 + c.hour * 3600 +
         c.minute * 60 + c.second;
}

Timestamp TimestampFromYmdHms(int y, int mo, int d, int h, int mi, int s) {
  return TimestampFromCivil({y, mo, d, h, mi, s});
}

std::string FormatTimestamp(Timestamp ts) {
  CivilTime c = CivilFromTimestamp(ts);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buf;
}

}  // namespace bgps
