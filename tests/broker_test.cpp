#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "broker/broker.hpp"
#include "core/data_interface.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::broker {
namespace {

namespace fs = std::filesystem;

TEST(ArchiveNaming, RoundTrip) {
  std::string name = ArchiveFileName(1456790400, 900, 120);
  EXPECT_EQ(name, "1456790400.900.120.mrt");
  Timestamp start = 0, duration = 0, delay = 0;
  ASSERT_TRUE(ParseArchiveFileName(name, &start, &duration, &delay));
  EXPECT_EQ(start, 1456790400);
  EXPECT_EQ(duration, 900);
  EXPECT_EQ(delay, 120);
}

TEST(ArchiveNaming, RejectsForeignFiles) {
  Timestamp a, b, c;
  EXPECT_FALSE(ParseArchiveFileName("README.md", &a, &b, &c));
  EXPECT_FALSE(ParseArchiveFileName("x.y.z.mrt", &a, &b, &c));
  EXPECT_FALSE(ParseArchiveFileName("100.200.mrt", &a, &b, &c));
}

TEST(ArchiveRelPath, Layout) {
  EXPECT_EQ(ArchiveRelPath("ris", "rrc00", DumpType::Updates, 100, 300, 0),
            "ris/rrc00/updates/100.300.0.mrt");
  EXPECT_EQ(ArchiveRelPath("routeviews", "route-views2", DumpType::Rib, 0,
                           7200, 60),
            "routeviews/route-views2/ribs/0.7200.60.mrt");
}

class ArchiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
  }
  std::string root_;
  Timestamp start_ = 0, end_ = 0;
};

TEST_F(ArchiveIndexTest, ScanFindsBothProjects) {
  ArchiveIndex index(root_);
  ASSERT_TRUE(index.Rescan().ok());
  EXPECT_FALSE(index.files().empty());
  auto projects = index.projects();
  ASSERT_EQ(projects.size(), 2u);
  EXPECT_EQ(projects[0], "ris");
  EXPECT_EQ(projects[1], "routeviews");
  EXPECT_EQ(index.collectors("ris"), std::vector<std::string>{"rrc00"});
}

TEST_F(ArchiveIndexTest, FilesSortedAndWellFormed) {
  ArchiveIndex index(root_);
  ASSERT_TRUE(index.Rescan().ok());
  Timestamp prev = 0;
  size_t ribs = 0, updates = 0;
  for (const auto& f : index.files()) {
    EXPECT_GE(f.start, prev);
    prev = f.start;
    EXPECT_GT(f.duration, 0);
    (f.type == DumpType::Rib ? ribs : updates) += 1;
    EXPECT_TRUE(fs::exists(f.path)) << f.path;
  }
  // 1 hour: RIS writes 12 updates dumps + 1 RIB; RV writes 4 + 1.
  EXPECT_EQ(ribs, 2u);
  EXPECT_EQ(updates, 16u);
}

TEST_F(ArchiveIndexTest, MissingRootIsError) {
  ArchiveIndex index("/nonexistent/archive");
  EXPECT_EQ(index.Rescan().code(), StatusCode::NotFound);
}

TEST_F(ArchiveIndexTest, BrokerHistoricalQueryWindowing) {
  Broker::Options opt;
  opt.window = 1800;  // 30-min windows
  opt.clock = [] { return Timestamp(4102444800); };  // far future: all published
  Broker broker(root_, opt);

  BrokerQuery q;
  q.interval = {start_, end_};
  auto r1 = broker.Query(q, start_);
  EXPECT_FALSE(r1.files.empty());
  EXPECT_FALSE(r1.exhausted);
  EXPECT_EQ(r1.next_cursor, start_ + 1800);
  for (const auto& f : r1.files) EXPECT_LT(f.start, start_ + 1800);

  auto r2 = broker.Query(q, r1.next_cursor);
  EXPECT_FALSE(r2.files.empty());
  for (const auto& f : r2.files) EXPECT_GE(f.start, start_ + 1800);

  // Eventually exhausts.
  auto r3 = broker.Query(q, r2.next_cursor);
  int guard = 0;
  while (!r3.exhausted && guard++ < 10) r3 = broker.Query(q, r3.next_cursor);
  EXPECT_TRUE(r3.exhausted);
}

TEST_F(ArchiveIndexTest, BrokerFiltersByProjectCollectorType) {
  Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  Broker broker(root_, opt);

  BrokerQuery q;
  q.projects = {"ris"};
  q.types = {DumpType::Rib};
  q.interval = {start_, end_};
  auto r = broker.Query(q, start_);
  ASSERT_EQ(r.files.size(), 1u);
  EXPECT_EQ(r.files[0].project, "ris");
  EXPECT_EQ(r.files[0].type, DumpType::Rib);

  q.projects = {"nonexistent"};
  r = broker.Query(q, start_);
  EXPECT_TRUE(r.files.empty());
}

TEST_F(ArchiveIndexTest, BrokerLiveModeHidesUnpublishedFiles) {
  // Virtual clock at start+10min: only dumps whose publish time has
  // passed are visible; querying beyond says retry_later.
  Timestamp now = start_ + 600;
  Broker::Options opt;
  opt.clock = [&now] { return now; };
  opt.window = 600;
  Broker broker(root_, opt);

  BrokerQuery q;
  q.projects = {"ris"};
  q.types = {DumpType::Updates};
  q.interval = {start_, kLiveEnd};

  auto r1 = broker.Query(q, start_);
  // First 5-min dump published at start+300 (delay 0), second at +600.
  ASSERT_FALSE(r1.files.empty());
  for (const auto& f : r1.files) EXPECT_LE(f.publish_time, now);

  // Ask for a window in the future of the virtual clock.
  auto r2 = broker.Query(q, start_ + 1200);
  EXPECT_TRUE(r2.files.empty());
  EXPECT_TRUE(r2.retry_later);
  EXPECT_FALSE(r2.exhausted);

  // Time advances; data appears.
  now = start_ + 2400;
  auto r3 = broker.Query(q, start_ + 1200);
  EXPECT_FALSE(r3.files.empty());
}

TEST_F(ArchiveIndexTest, BrokerMirrorRewriting) {
  Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  opt.mirrors = {"/mirror-a", "/mirror-b"};
  Broker broker(root_, opt);
  BrokerQuery q;
  q.interval = {start_, end_};
  auto r = broker.Query(q, start_);
  ASSERT_GE(r.files.size(), 2u);
  bool saw_a = false, saw_b = false;
  for (const auto& f : r.files) {
    saw_a |= f.path.rfind("/mirror-a", 0) == 0;
    saw_b |= f.path.rfind("/mirror-b", 0) == 0;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST_F(ArchiveIndexTest, LivePublicationFrontierPerTrack) {
  // A RIB dump that publishes hours after its interval start must not
  // block the 5-minute updates dumps of the same or other collectors.
  // The small archive writes RIBs with duration 8h (RIS), published at
  // interval end: at now = start+30min, updates are published but the
  // RIBs are not.
  Timestamp now = start_ + 1800;
  Broker::Options opt;
  opt.clock = [&now] { return now; };
  Broker broker(root_, opt);

  BrokerQuery q;
  q.interval = {start_, kLiveEnd};
  auto r = broker.Query(q, start_);
  ASSERT_FALSE(r.files.empty());
  bool saw_updates = false;
  for (const auto& f : r.files) {
    EXPECT_LE(f.publish_time, now);
    if (f.type == DumpType::Updates) saw_updates = true;
    // The unpublished RIBs must not be served.
    if (f.type == DumpType::Rib) {
      EXPECT_LE(f.publish_time, now);
    }
  }
  EXPECT_TRUE(saw_updates);

  // Once the RIB publishes, a revisit from the (earlier) frontier serves
  // it; a client deduplicates re-offered updates dumps.
  now = start_ + 9 * 3600;
  auto r2 = broker.Query(q, r.next_cursor);
  bool saw_rib = false;
  for (const auto& f : r2.files) saw_rib |= f.type == DumpType::Rib;
  EXPECT_TRUE(saw_rib);
}

// Every batch a historical stream over `interval` is served, as file
// paths, plus the number of broker queries it took.
struct ServedRun {
  std::vector<std::vector<std::string>> batches;
  size_t queries = 0;
};

ServedRun ServeAll(const std::string& root, TimeInterval interval) {
  Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  Broker broker(root, opt);
  core::BrokerDataInterface di(&broker);
  core::FilterSet filters;
  filters.interval = interval;
  ServedRun run;
  while (true) {
    core::DataBatch batch = di.NextBatch(filters);
    if (batch.end_of_stream) break;
    std::vector<std::string> paths;
    for (const auto& f : batch.files) paths.push_back(f.path);
    run.batches.push_back(std::move(paths));
  }
  run.queries = broker.queries_served();
  return run;
}

TEST_F(ArchiveIndexTest, HistoricalQuerySkipsEmptyWindows) {
  // The reference: a stream starting at the first file's window on the
  // 2 h grid of an interval that starts at 0.
  constexpr Timestamp kWindow = 2 * 3600;
  ArchiveIndex index(root_);
  ASSERT_TRUE(index.Rescan().ok());
  ASSERT_FALSE(index.files().empty());
  const Timestamp first = index.files().front().start;
  ServedRun reference = ServeAll(root_, {first / kWindow * kWindow, end_});
  ASSERT_FALSE(reference.batches.empty());

  // `-w 0,END`: ~200k empty windows before the corpus.
  ServedRun from_zero = ServeAll(root_, {0, end_});
  EXPECT_EQ(from_zero.batches, reference.batches);
  EXPECT_LE(from_zero.queries, 4u);

  // An END in 2100: ~370k empty windows after the last file.
  ServedRun to_2100 = ServeAll(root_, {start_, 4102444800});
  EXPECT_EQ(to_2100.batches, ServeAll(root_, {start_, end_}).batches);
  EXPECT_LE(to_2100.queries, 4u);
}

TEST_F(ArchiveIndexTest, FirstResponseIncludesCoveringRib) {
  // Query starting mid-RIB-interval must still return the covering RIB
  // dump so streams can bootstrap.
  Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  Broker broker(root_, opt);
  BrokerQuery q;
  q.types = {DumpType::Rib};
  q.interval = {start_ + 1800, end_};
  auto r = broker.Query(q, 0);
  bool found_rib_before_start = false;
  for (const auto& f : r.files) {
    if (f.start < start_ + 1800) found_rib_before_start = true;
  }
  EXPECT_TRUE(found_rib_before_start);
}

}  // namespace
}  // namespace bgps::broker
