// Sorted-stream generation unit tests (paper §3.3.4): the overlapping-
// subset partition and the multi-way merge tie-break rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>

#include "core/merge.hpp"
#include "core/prefetch.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"

namespace bgps::core {
namespace {

broker::DumpFileMeta File(Timestamp start, Timestamp duration,
                          broker::DumpType type = broker::DumpType::Updates,
                          std::string path = "") {
  broker::DumpFileMeta f;
  f.project = "test";
  f.collector = "c0";
  f.type = type;
  f.start = start;
  f.duration = duration;
  f.path = path.empty() ? "mem://" + std::to_string(start) : std::move(path);
  return f;
}

// Partition invariants GroupOverlapping must uphold regardless of input:
// the subsets are a permutation-free split of the sorted input, each
// internally sorted, ordered by earliest start, and time-disjoint (a
// subset starts at or after the latest end of its predecessor).
void CheckPartition(
    std::vector<broker::DumpFileMeta> input,
    const std::vector<std::vector<broker::DumpFileMeta>>& subsets) {
  std::sort(input.begin(), input.end());
  std::vector<broker::DumpFileMeta> flattened;
  Timestamp prev_max_end = 0;
  for (size_t k = 0; k < subsets.size(); ++k) {
    const auto& subset = subsets[k];
    ASSERT_FALSE(subset.empty());
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    if (k > 0) {
      EXPECT_GE(subset.front().start, prev_max_end)
          << "subset " << k << " overlaps its predecessor";
    }
    for (const auto& f : subset) {
      prev_max_end = std::max(prev_max_end, f.end());
      flattened.push_back(f);
    }
  }
  EXPECT_EQ(flattened, input);
}

TEST(GroupOverlappingTest, EmptyInput) {
  EXPECT_TRUE(GroupOverlapping({}).empty());
}

TEST(GroupOverlappingTest, SingleFile) {
  auto subsets = GroupOverlapping({File(1000, 300)});
  ASSERT_EQ(subsets.size(), 1u);
  ASSERT_EQ(subsets[0].size(), 1u);
  EXPECT_EQ(subsets[0][0].start, 1000);
}

TEST(GroupOverlappingTest, FullyDisjointFilesGetOneSubsetEach) {
  std::vector<broker::DumpFileMeta> files = {
      File(3000, 300), File(1000, 300), File(2000, 300), File(4000, 300)};
  auto subsets = GroupOverlapping(files);
  ASSERT_EQ(subsets.size(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(subsets[k].size(), 1u);
    EXPECT_EQ(subsets[k][0].start, Timestamp(1000 * (k + 1)));
  }
  CheckPartition(files, subsets);
}

TEST(GroupOverlappingTest, AllSpanningFileCollapsesToOneSubset) {
  // One RIB-style dump covering the whole window chains otherwise
  // disjoint updates dumps into a single subset.
  std::vector<broker::DumpFileMeta> files = {
      File(1000, 300), File(2000, 300), File(3000, 300),
      File(500, 5000, broker::DumpType::Rib)};
  auto subsets = GroupOverlapping(files);
  ASSERT_EQ(subsets.size(), 1u);
  EXPECT_EQ(subsets[0].size(), 4u);
  CheckPartition(files, subsets);
}

TEST(GroupOverlappingTest, TouchingIntervalsDoNotOverlap) {
  // [0,300) and [300,600) share only the boundary instant: half-open
  // intervals, so they belong to different subsets.
  auto subsets = GroupOverlapping({File(0, 300), File(300, 300)});
  EXPECT_EQ(subsets.size(), 2u);
}

TEST(GroupOverlappingTest, RandomizedFiveHundredFilesStaySmallAndOrdered) {
  // 50 disjoint time clusters of 10 files each (the paper reports ~500-
  // file broker responses collapsing into bounded subsets). Files within
  // a cluster overlap; clusters are separated by dead time.
  std::mt19937 rng(20160301);
  std::vector<broker::DumpFileMeta> files;
  constexpr Timestamp kClusterSpacing = 100000;
  for (int cluster = 0; cluster < 50; ++cluster) {
    Timestamp base = Timestamp(cluster) * kClusterSpacing;
    for (int i = 0; i < 10; ++i) {
      Timestamp start = base + rng() % 2000;
      Timestamp duration = 100 + rng() % 2000;  // stays inside the cluster
      files.push_back(File(start, duration));
    }
  }
  std::shuffle(files.begin(), files.end(), rng);

  auto subsets = GroupOverlapping(files);
  CheckPartition(files, subsets);
  // Clusters never merge, so no subset can exceed a cluster's population.
  EXPECT_GE(subsets.size(), 50u);
  size_t max_subset = 0;
  for (const auto& s : subsets) max_subset = std::max(max_subset, s.size());
  EXPECT_LE(max_subset, 10u);
}

// --- MultiWayMerge tie-break (updates before RIB at equal timestamps) ------

class MergeTieBreakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("merge_tiebreak_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteUpdatesFile(Timestamp ts, int count) {
    std::string path = (dir_ / "updates.mrt").string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    for (int i = 0; i < count; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(uint32_t(10 + i) << 24), 16));
      EXPECT_TRUE(w.Write(mrt::EncodeBgp4mpUpdate(ts, m)).ok());
    }
    EXPECT_TRUE(w.Close().ok());
    return path;
  }

  std::string WriteRibFile(Timestamp ts, int count) {
    std::string path = (dir_ / "rib.mrt").string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    mrt::PeerIndexTable pit;
    pit.collector_bgp_id = 0x0a000001;
    mrt::PeerEntry pe;
    pe.bgp_id = 0x0a000002;
    pe.address = IpAddress::V4(10, 0, 0, 2);
    pe.asn = 65001;
    pit.peers.push_back(pe);
    EXPECT_TRUE(w.Write(mrt::EncodePeerIndexTable(ts, pit)).ok());
    for (int i = 0; i < count; ++i) {
      mrt::RibPrefix rib;
      rib.sequence = uint32_t(i);
      rib.prefix = Prefix(IpAddress::V4(uint32_t(20 + i) << 24), 16);
      mrt::RibEntry e;
      e.peer_index = 0;
      e.originated_time = ts;
      e.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      e.attrs.next_hop = IpAddress::V4(10, 0, 0, 2);
      rib.entries.push_back(std::move(e));
      EXPECT_TRUE(w.Write(mrt::EncodeRibPrefix(ts, rib, IpFamily::V4)).ok());
    }
    EXPECT_TRUE(w.Close().ok());
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(MergeTieBreakTest, UpdatesSortBeforeRibAtEqualTimestamps) {
  constexpr Timestamp kTs = 1458000000;
  // RIB file listed FIRST so a naive index tie-break would emit it first;
  // the type rank must win.
  std::vector<broker::DumpFileMeta> files = {
      File(kTs, 300, broker::DumpType::Rib, WriteRibFile(kTs, 3)),
      File(kTs, 300, broker::DumpType::Updates, WriteUpdatesFile(kTs, 3))};

  MultiWayMerge merge(files);
  std::vector<DumpType> order;
  while (auto rec = merge.Next()) {
    EXPECT_EQ(rec->timestamp, kTs);
    order.push_back(rec->dump_type);
  }
  ASSERT_EQ(order.size(), 7u);  // 3 updates + peer index + 3 rib records
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], DumpType::Updates);
  for (size_t i = 3; i < 7; ++i) EXPECT_EQ(order[i], DumpType::Rib);
}

TEST_F(MergeTieBreakTest, PrefetchedMergeAppliesSameTieBreak) {
  constexpr Timestamp kTs = 1458000000;
  std::vector<broker::DumpFileMeta> files = {
      File(kTs, 300, broker::DumpType::Rib, WriteRibFile(kTs, 3)),
      File(kTs, 300, broker::DumpType::Updates, WriteUpdatesFile(kTs, 3))};

  PrefetchDecoder::Options opt;
  opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
  opt.governor = std::make_shared<MemoryGovernor>(16);
  ASSERT_TRUE(opt.governor->TryAcquire(files.size()));  // floor slots
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(files);
  MultiWayMerge merge(decoder.NextSources());
  std::vector<DumpType> order;
  while (auto rec = merge.Next()) order.push_back(rec->dump_type);
  ASSERT_EQ(order.size(), 7u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], DumpType::Updates);
  for (size_t i = 3; i < 7; ++i) EXPECT_EQ(order[i], DumpType::Rib);
}

}  // namespace
}  // namespace bgps::core
