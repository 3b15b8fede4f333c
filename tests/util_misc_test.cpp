#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace bgps {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::Ok);
}

TEST(Status, ToStringIncludesMessage) {
  Status s = CorruptError("bad attribute");
  EXPECT_EQ(s.ToString(), "CORRUPT: bad attribute");
  EXPECT_EQ(Status().ToString(), "OK");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFoundError("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::NotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(BufReader, BigEndianReads) {
  Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  BufReader r(data);
  EXPECT_EQ(r.u16().value(), 0x0102);
  EXPECT_EQ(r.u32().value(), 0x03040506u);
  EXPECT_EQ(r.u8().value(), 0x07);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BufReader, U64) {
  Bytes data = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04};
  BufReader r(data);
  EXPECT_EQ(r.u64().value(), 0xDEADBEEF01020304ull);
}

TEST(BufReader, OutOfRange) {
  Bytes data = {0x01};
  BufReader r(data);
  EXPECT_FALSE(r.u16().ok());
  EXPECT_EQ(r.u16().status().code(), StatusCode::OutOfRange);
  // Failed read does not consume.
  EXPECT_EQ(r.u8().value(), 0x01);
}

TEST(BufReader, SubReaderIsolation) {
  Bytes data = {0x01, 0x02, 0x03, 0x04};
  BufReader r(data);
  auto sub = r.sub(2);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->u16().value(), 0x0102);
  EXPECT_FALSE(sub->u8().ok());   // sub is bounded
  EXPECT_EQ(r.u16().value(), 0x0304);  // parent advanced past sub
}

TEST(BufReader, SkipAndView) {
  Bytes data = {1, 2, 3, 4, 5};
  BufReader r(data);
  EXPECT_TRUE(r.skip(2).ok());
  auto v = r.view(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)[0], 3);
  EXPECT_FALSE(r.skip(2).ok());
}

TEST(BufWriter, RoundTrip) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  BufReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0102030405060708ull);
}

TEST(BufWriter, Patch) {
  BufWriter w;
  w.u16(0);
  w.u32(0);
  w.patch_u16(0, 0xBEEF);
  w.patch_u32(2, 0x12345678);
  BufReader r(w.data());
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0x12345678u);
}

TEST(Time, CivilRoundTrip) {
  // 2016-03-15 00:00:00 UTC = 1458000000.
  Timestamp ts = 1458000000;
  CivilTime c = CivilFromTimestamp(ts);
  EXPECT_EQ(c.year, 2016);
  EXPECT_EQ(c.month, 3);
  EXPECT_EQ(c.day, 15);
  EXPECT_EQ(TimestampFromCivil(c), ts);
}

TEST(Time, KnownEpochs) {
  EXPECT_EQ(TimestampFromYmdHms(1970, 1, 1, 0, 0, 0), 0);
  EXPECT_EQ(TimestampFromYmdHms(2001, 1, 15, 0, 0, 0), 979516800);
  EXPECT_EQ(TimestampFromYmdHms(2016, 1, 15, 0, 0, 0), 1452816000);
  // Leap year boundary.
  EXPECT_EQ(TimestampFromYmdHms(2016, 2, 29, 0, 0, 0),
            TimestampFromYmdHms(2016, 2, 28, 0, 0, 0) + 86400);
}

TEST(Time, Format) {
  EXPECT_EQ(FormatTimestamp(TimestampFromYmdHms(2015, 1, 7, 12, 30, 5)),
            "2015-01-07 12:30:05");
}

// Property sweep: civil <-> timestamp round-trips across months/years.
class CivilRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CivilRoundTrip, MonthMidnights) {
  int month_index = GetParam();
  int year = 2001 + month_index / 12;
  int month = 1 + month_index % 12;
  Timestamp ts = TimestampFromYmdHms(year, month, 15, 0, 0, 0);
  CivilTime c = CivilFromTimestamp(ts);
  EXPECT_EQ(c.year, year);
  EXPECT_EQ(c.month, month);
  EXPECT_EQ(c.day, 15);
  EXPECT_EQ(c.hour, 0);
  EXPECT_EQ(TimestampFromCivil(c), ts);
}

INSTANTIATE_TEST_SUITE_P(FifteenYears, CivilRoundTrip,
                         ::testing::Range(0, 15 * 12));

TEST(Time, IntervalContains) {
  TimeInterval iv{100, 200};
  EXPECT_TRUE(iv.contains(100));
  EXPECT_TRUE(iv.contains(199));
  EXPECT_FALSE(iv.contains(200));
  EXPECT_FALSE(iv.contains(99));
}

TEST(Time, LiveInterval) {
  TimeInterval live{100, kLiveEnd};
  EXPECT_TRUE(live.live());
  EXPECT_TRUE(live.contains(1 << 30));
  EXPECT_FALSE(live.contains(99));
  EXPECT_TRUE(live.overlaps(50, 150));
  EXPECT_FALSE(live.overlaps(50, 100));
}

TEST(Time, IntervalOverlaps) {
  TimeInterval iv{100, 200};
  EXPECT_TRUE(iv.overlaps(150, 250));
  EXPECT_TRUE(iv.overlaps(50, 101));
  EXPECT_FALSE(iv.overlaps(200, 300));
  EXPECT_FALSE(iv.overlaps(50, 100));
}

TEST(Time, AlignToBin) {
  EXPECT_EQ(AlignToBin(1458000123, 60), 1458000120);
  EXPECT_EQ(AlignToBin(1458000120, 60), 1458000120);
}

TEST(Time, ParseTimeWindow) {
  auto closed = ParseTimeWindow("1451606400,1451610000");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->start, 1451606400);
  EXPECT_EQ(closed->end, 1451610000);
  auto live = ParseTimeWindow("1451606400");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->start, 1451606400);
  EXPECT_TRUE(live->live());

  // Every token must be whole non-negative seconds; END > START.
  const std::pair<const char*, const char*> bad[] = {
      {"", "START must be whole UNIX seconds, got \"\""},
      {"foo", "START must be whole UNIX seconds, got \"foo\""},
      {"1451606400x", "START must be whole UNIX seconds, got \"1451606400x\""},
      {"-5", "START must be whole UNIX seconds, got \"-5\""},
      {"99999999999999999999",
       "START must be whole UNIX seconds, got \"99999999999999999999\""},
      {"1451606400,abc", "END must be whole UNIX seconds, got \"abc\""},
      {"1451606400,", "END must be whole UNIX seconds, got \"\""},
      {"1,2,3", "END must be whole UNIX seconds, got \"2,3\""},
      {"5,5", "window must have END > START"},
      {"6,5", "window must have END > START"},
  };
  for (const auto& [text, message] : bad) {
    auto w = ParseTimeWindow(text);
    ASSERT_FALSE(w.ok()) << text;
    EXPECT_EQ(w.status().code(), StatusCode::InvalidArgument) << text;
    EXPECT_EQ(w.status().message(), message) << text;
  }
}

TEST(Strings, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  auto dense = SplitSkipEmpty("a,b,,c", ',');
  ASSERT_EQ(dense.size(), 3u);
}

TEST(Strings, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "|"), "a|b|c");
  EXPECT_EQ(JoinStrings({}, "|"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("routeviews", "route"));
  EXPECT_FALSE(StartsWith("route", "routeviews"));
}

}  // namespace
}  // namespace bgps
