// Open-loop arithmetic of the live workload: due times, latency from
// the due time, generator lateness, record -> frame mapping, and
// percentiles that need ten samples beyond them.
#include "openloop.hpp"

#include <gtest/gtest.h>

namespace perfbench::openloop {
namespace {

TEST(OpenLoop, DueTimesFollowTheScheduleNotTheSender) {
  EXPECT_DOUBLE_EQ(DueTime(100.0, 0, 20000.0), 100.0);
  EXPECT_DOUBLE_EQ(DueTime(100.0, 20000, 20000.0), 101.0);
  EXPECT_DOUBLE_EQ(DueTime(100.0, 1, 20000.0), 100.00005);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // A frame due at 10.000 s whose record arrives at 10.0075 s waited
  // 7.5 ms, even if the generator only offered it at 10.005 s.
  EXPECT_NEAR(LatencyMs(10.000, 10.0075), 7.5, 1e-9);
  // A stall that delays a later frame's offer still counts from its
  // (earlier) due time.
  const double due = DueTime(10.0, 40, 20000.0);  // 10.002
  EXPECT_NEAR(LatencyMs(due, 10.012), 10.0, 1e-9);
}

TEST(OpenLoop, LatenessIsNeverNegative) {
  EXPECT_DOUBLE_EQ(LatenessMs(5.0, 4.9), 0.0);
  EXPECT_DOUBLE_EQ(LatenessMs(5.0, 5.0), 0.0);
  EXPECT_NEAR(LatenessMs(5.0, 5.0021), 2.1, 1e-9);
}

TEST(OpenLoop, RecordsMapToTheFramesThatProducedThem) {
  // Frame 0 (an Initiation) produced nothing, frame 2 two records.
  const std::vector<uint8_t> per_frame = {0, 1, 2, 0, 1};
  const std::vector<uint32_t> want = {1, 2, 2, 4};
  EXPECT_EQ(RecordFrames(per_frame), want);
}

TEST(OpenLoop, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(double(1001 - i));  // unsorted
  const Percentile p50 = NearestRank(v, 50);
  EXPECT_DOUBLE_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
  const Percentile p99 = NearestRank(v, 99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());
}

TEST(OpenLoop, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> v(999, 1.0);
  const Percentile p99 = NearestRank(v, 99);
  EXPECT_EQ(p99.beyond, 9u);  // rank ceil(989.01) = 990 of 999
  EXPECT_FALSE(p99.supported());
  EXPECT_FALSE(NearestRank({}, 50).supported());
  EXPECT_EQ(NearestRank({}, 50).samples, 0u);
}

}  // namespace
}  // namespace perfbench::openloop
