#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "analysis/graph.hpp"
#include "analysis/mapreduce.hpp"
#include "analysis/stats.hpp"
#include "mq/consumers.hpp"

namespace bgps::mq {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

TEST(Cluster, PublishFetchOffsets) {
  Cluster cluster;
  cluster.CreateTopic("t", 2);
  EXPECT_EQ(cluster.partitions("t"), 2u);
  Message m;
  m.key = "k";
  m.value = {1, 2, 3};
  EXPECT_EQ(cluster.Publish("t", 0, m), 0u);
  EXPECT_EQ(cluster.Publish("t", 0, m), 1u);
  EXPECT_EQ(cluster.Publish("t", 1, m), 0u);  // partitions independent
  EXPECT_EQ(cluster.EndOffset("t", 0), 2u);
  EXPECT_EQ(cluster.EndOffset("t", 1), 1u);

  auto msgs = *cluster.Fetch("t", 0, 0);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0]->offset, 0u);
  EXPECT_EQ(msgs[1]->offset, 1u);
  EXPECT_EQ(cluster.Fetch("t", 0, 1)->size(), 1u);
  EXPECT_TRUE(cluster.Fetch("t", 0, 2)->empty());
  EXPECT_TRUE(cluster.Fetch("missing", 0, 0)->empty());
}

TEST(Cluster, AutoCreateOnPublish) {
  Cluster cluster;
  Message m;
  cluster.Publish("auto", 0, m);
  EXPECT_EQ(cluster.partitions("auto"), 1u);
  EXPECT_EQ(cluster.topics(), std::vector<std::string>{"auto"});
}

TEST(Cluster, ConsumerTracksPosition) {
  Cluster cluster;
  Message m;
  cluster.Publish("t", 0, m);
  cluster.Publish("t", 0, m);
  Consumer c(&cluster, "t");
  EXPECT_EQ(c.Poll()->size(), 2u);
  EXPECT_TRUE(c.Poll()->empty());
  cluster.Publish("t", 0, m);
  EXPECT_EQ(c.Poll()->size(), 1u);
  c.Seek(0);
  EXPECT_EQ(c.Poll()->size(), 3u);
}

TEST(Cluster, ConcurrentProducersAreSafe) {
  Cluster cluster;
  cluster.CreateTopic("t", 1);
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cluster] {
      for (int i = 0; i < kPerThread; ++i) {
        Message m;
        m.value = {uint8_t(i)};
        cluster.Publish("t", 0, m);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cluster.EndOffset("t", 0), size_t(kThreads * kPerThread));
  // Offsets are dense and unique.
  auto msgs = *cluster.Fetch("t", 0, 0);
  for (size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(msgs[i]->offset, i);
}

Message Msg(std::initializer_list<uint8_t> bytes) {
  Message m;
  m.value = bytes;
  return m;
}

TEST(Cluster, RetentionTruncatesOldMessages) {
  RetentionOptions keep3;
  keep3.max_messages = 3;
  Cluster cluster;
  cluster.CreateTopic("t", 1, keep3);
  for (uint8_t i = 0; i < 10; ++i) cluster.Publish("t", 0, Msg({i}));
  EXPECT_EQ(cluster.EndOffset("t", 0), 10u);
  EXPECT_EQ(cluster.FirstOffset("t", 0), 7u);
  auto msgs = *cluster.Fetch("t", 0, 7);
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0]->value, Bytes({7}));
  EXPECT_EQ(msgs[2]->offset, 9u);
}

TEST(Cluster, RetentionByBytesKeepsNewestMessage) {
  RetentionOptions tiny;
  tiny.max_bytes = 4;
  Cluster cluster;
  cluster.CreateTopic("t", 1, tiny);
  // Each message exceeds the byte budget alone; the newest must survive
  // anyway so a publish is never silently dropped.
  cluster.Publish("t", 0, Msg({1, 2, 3, 4, 5, 6}));
  cluster.Publish("t", 0, Msg({7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(cluster.FirstOffset("t", 0), 1u);
  EXPECT_EQ(cluster.RetainedBytes("t", 0), 6u);
  auto msgs = *cluster.Fetch("t", 0, 1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0]->value, Bytes({7, 8, 9, 10, 11, 12}));
}

TEST(Cluster, FetchBelowLowWatermarkIsTruncatedError) {
  RetentionOptions keep2;
  keep2.max_messages = 2;
  Cluster cluster;
  cluster.CreateTopic("t", 1, keep2);
  for (uint8_t i = 0; i < 5; ++i) cluster.Publish("t", 0, Msg({i}));
  EXPECT_EQ(cluster.FirstOffset("t", 0), 3u);
  auto below = cluster.Fetch("t", 0, 0);
  ASSERT_FALSE(below.ok());
  EXPECT_TRUE(IsTruncated(below.status()));
  // At or above the watermark is fine; past the end is empty, not error.
  EXPECT_TRUE(cluster.Fetch("t", 0, 3).ok());
  EXPECT_TRUE(cluster.Fetch("t", 0, 5)->empty());
}

TEST(Cluster, FetchByteBudgetCapsBatchButMakesProgress) {
  Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.Publish("t", 0, Msg({1, 2, 3, 4}));
  // Budget of 10 bytes fits two 4-byte messages.
  EXPECT_EQ(cluster.Fetch("t", 0, 0, 0, 10)->size(), 2u);
  // A budget smaller than any single message still returns one message —
  // a tiny budget must not wedge the consumer.
  auto one = *cluster.Fetch("t", 0, 0, 0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0]->offset, 0u);
}

TEST(Cluster, ConsumerPollHonorsByteBudgetAndTruncation) {
  RetentionOptions keep2;
  keep2.max_messages = 2;
  Cluster cluster;
  cluster.CreateTopic("t", 1, keep2);
  for (uint8_t i = 0; i < 6; ++i) cluster.Publish("t", 0, Msg({i, i}));
  Consumer c(&cluster, "t");
  // Position 0 fell below the low-watermark: explicit error, cursor parked.
  auto lost = c.Poll();
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(IsTruncated(lost.status()));
  EXPECT_EQ(c.position(), 0u);
  // After re-seeking to the first retained offset, byte-budgeted polls
  // walk the log one message at a time.
  c.SeekToFirst();
  EXPECT_EQ(c.position(), 4u);
  EXPECT_EQ(c.Poll(0, 2)->size(), 1u);
  EXPECT_EQ(c.Poll(0, 2)->size(), 1u);
  EXPECT_TRUE(c.Poll(0, 2)->empty());
}

// Polls `cond` for up to 5 s.
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 2500 && !cond(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return cond();
}

// Waits for the partition's end offset to reach `end`, then checks that
// it stays there: the publisher is parked on the pin.
void ExpectParkedAt(const Cluster& cluster, uint64_t end) {
  ASSERT_TRUE(Eventually([&] { return cluster.EndOffset("t", 0) >= end; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cluster.EndOffset("t", 0), end);
}

TEST(Cluster, PinsBlockTruncationUntilReleased) {
  RetentionOptions keep2;
  keep2.max_messages = 2;
  Cluster cluster;
  cluster.CreateTopic("t", 1, keep2);
  cluster.Publish("t", 0, Msg({0}));
  auto pin = cluster.CreatePin("t", 0, 0);
  ASSERT_TRUE(pin);
  // On the pin's own thread these publishes would wait on themselves.
  std::thread publisher([&cluster] {
    for (uint8_t i = 1; i < 6; ++i) cluster.Publish("t", 0, Msg({i}));
  });
  // The pin holds the low-watermark at 0: the log holds one message
  // past max_messages = 2, and the next publish parks.
  ExpectParkedAt(cluster, 3);
  EXPECT_EQ(cluster.FirstOffset("t", 0), 0u);
  EXPECT_EQ(cluster.Fetch("t", 0, 0)->size(), 3u);
  // Advancing the pin releases the prefix below it and resumes the
  // publisher until the pin holds the bound again.
  pin.Advance(2);
  ExpectParkedAt(cluster, 5);
  EXPECT_EQ(cluster.FirstOffset("t", 0), 2u);
  // Releasing entirely lets the last publish in and retention catch up
  // to its configured bound.
  pin.Release();
  publisher.join();
  EXPECT_EQ(cluster.EndOffset("t", 0), 6u);
  EXPECT_EQ(cluster.FirstOffset("t", 0), 4u);
  EXPECT_TRUE(IsTruncated(cluster.Fetch("t", 0, 0).status()));
}

// Only a pin on a bounded partition parks a publish. These all run on
// the test thread, so a wait would hang the test.
TEST(Cluster, UnboundedAndUnpinnedPartitionsNeverWait) {
  Cluster cluster;
  auto open_pin = cluster.CreatePin("open", 0, 0);
  for (uint8_t i = 0; i < 100; ++i) cluster.Publish("open", 0, Msg({i}));
  EXPECT_EQ(cluster.FirstOffset("open", 0), 0u);
  EXPECT_EQ(cluster.EndOffset("open", 0), 100u);

  cluster.CreateTopic("bounded", 1, RetentionOptions{/*max_messages=*/2, 0});
  for (uint8_t i = 0; i < 100; ++i) cluster.Publish("bounded", 0, Msg({i}));
  EXPECT_EQ(cluster.FirstOffset("bounded", 0), 98u);

  // A pinned partition over max_bytes with one message takes the next.
  cluster.CreateTopic("tiny", 1, RetentionOptions{0, /*max_bytes=*/4});
  auto tiny_pin = cluster.CreatePin("tiny", 0, 0);
  cluster.Publish("tiny", 0, Msg({1, 2, 3, 4, 5, 6}));
  cluster.Publish("tiny", 0, Msg({7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(cluster.EndOffset("tiny", 0), 2u);
  EXPECT_EQ(cluster.FirstOffset("tiny", 0), 0u);
}

corsaro::DiffCell MakeDiff(const std::string& collector, bgp::Asn peer,
                           const std::string& prefix, bool announced,
                           const std::string& path = "65001 15169") {
  corsaro::DiffCell d;
  d.vp = {collector, peer};
  d.prefix = P(prefix);
  d.cell.announced = announced;
  d.cell.as_path = *bgp::AsPath::Parse(path);
  d.cell.last_modified = 12345;
  d.cell.communities = {bgp::Community(65001, 1)};
  return d;
}

TEST(Serialize, DiffMessageRoundTrip) {
  RtDiffMessage msg;
  msg.collector = "rrc00";
  msg.bin_start = 1458000000;
  msg.diffs = {MakeDiff("rrc00", 65001, "10.0.0.0/8", true),
               MakeDiff("rrc00", 65002, "2001:db8::/32", false)};
  Bytes wire = EncodeDiffMessage(msg);
  EXPECT_EQ(*PeekKind(wire), RtMessageKind::Diff);
  auto decoded = DecodeDiffMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->collector, "rrc00");
  EXPECT_EQ(decoded->bin_start, 1458000000);
  ASSERT_EQ(decoded->diffs.size(), 2u);
  EXPECT_EQ(decoded->diffs[0].prefix, P("10.0.0.0/8"));
  EXPECT_TRUE(decoded->diffs[0].cell.announced);
  EXPECT_EQ(decoded->diffs[0].cell.as_path.ToString(), "65001 15169");
  EXPECT_FALSE(decoded->diffs[1].cell.announced);
  EXPECT_EQ(decoded->diffs[1].prefix.family(), IpFamily::V6);
}

TEST(Serialize, SnapshotMessageRoundTrip) {
  RtSnapshotMessage msg;
  msg.collector = "rv2";
  msg.bin_start = 100;
  msg.vp = {"rv2", 65009};
  msg.table[P("10.0.0.0/8")] = MakeDiff("rv2", 65009, "10.0.0.0/8", true).cell;
  msg.table[P("192.168.0.0/16")] =
      MakeDiff("rv2", 65009, "192.168.0.0/16", true).cell;
  Bytes wire = EncodeSnapshotMessage(msg);
  EXPECT_EQ(*PeekKind(wire), RtMessageKind::Snapshot);
  auto decoded = DecodeSnapshotMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->vp.peer, 65009u);
  EXPECT_EQ(decoded->table.size(), 2u);
}

TEST(Serialize, MetaMessageRoundTrip) {
  RtMetaMessage msg{"rrc00", 7777, 42};
  auto decoded = DecodeMetaMessage(EncodeMetaMessage(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->collector, "rrc00");
  EXPECT_EQ(decoded->bin_start, 7777);
  EXPECT_EQ(decoded->diff_cells, 42u);
}

TEST(Serialize, DecodeRejectsWrongKind) {
  RtMetaMessage msg{"c", 1, 2};
  Bytes wire = EncodeMetaMessage(msg);
  EXPECT_FALSE(DecodeDiffMessage(wire).ok());
  EXPECT_FALSE(PeekKind({}).ok());
}

void PublishMeta(Cluster& cluster, const std::string& collector,
                 Timestamp bin) {
  Message m;
  m.timestamp = bin;
  m.value = EncodeMetaMessage(RtMetaMessage{collector, bin, 1});
  cluster.Publish(kRtMetaTopic, 0, std::move(m));
}

TEST(SyncServers, CompletenessWaitsForAllCollectors) {
  Cluster cluster;
  CompletenessSyncServer sync(&cluster, "ready", {"a", "b"});
  PublishMeta(cluster, "a", 100);
  EXPECT_EQ(sync.Poll(), 0u);  // b missing
  PublishMeta(cluster, "b", 100);
  EXPECT_EQ(sync.Poll(), 1u);
  auto markers = *cluster.Fetch("ready", 0, 0);
  ASSERT_EQ(markers.size(), 1u);
  auto marker = DecodeReadyMarker(markers[0]->value);
  ASSERT_TRUE(marker.ok());
  EXPECT_EQ(marker->bin_start, 100);
  EXPECT_EQ(marker->collectors_present.size(), 2u);
}

TEST(SyncServers, TimeoutReleasesIncompleteBins) {
  Cluster cluster;
  TimeoutSyncServer sync(&cluster, "ready", 600);
  PublishMeta(cluster, "a", 100);   // b never reports bin 100
  EXPECT_EQ(sync.Poll(), 0u);
  PublishMeta(cluster, "a", 400);
  EXPECT_EQ(sync.Poll(), 0u);       // only 300s of data-time passed
  PublishMeta(cluster, "a", 700);
  EXPECT_EQ(sync.Poll(), 1u);       // bin 100 timed out
  auto markers = *cluster.Fetch("ready", 0, 0);
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(DecodeReadyMarker(markers[0]->value)->bin_start, 100);
}

// End-to-end consumer pipeline with hand-rolled diffs: two collectors,
// two VPs, an outage on one AS.
TEST(GlobalViewConsumer, DetectsPerAsOutage) {
  Cluster cluster;
  CompletenessSyncServer sync(&cluster, "ready", {"c1", "c2"});
  GlobalViewConsumer::Options opt;
  opt.median_window = 4;
  GlobalViewConsumer consumer(
      &cluster, {"c1", "c2"}, "ready",
      [](bgp::Asn asn) { return asn == 15169 ? "US" : "IQ"; }, opt);

  auto publish_diffs = [&](const std::string& collector, Timestamp bin,
                           std::vector<corsaro::DiffCell> diffs) {
    RtDiffMessage msg;
    msg.collector = collector;
    msg.bin_start = bin;
    msg.diffs = std::move(diffs);
    Message m;
    m.timestamp = bin;
    m.value = EncodeDiffMessage(msg);
    cluster.Publish(RtTopic(collector), 0, std::move(m));
    PublishMeta(cluster, collector, bin);
  };

  // Bins 0..5: both VPs see both prefixes (one per origin AS).
  for (Timestamp bin = 0; bin < 6; ++bin) {
    std::vector<corsaro::DiffCell> d1, d2;
    if (bin == 0) {
      d1 = {MakeDiff("c1", 1, "10.0.0.0/8", true, "1 15169"),
            MakeDiff("c1", 1, "20.0.0.0/8", true, "1 64999")};
      d2 = {MakeDiff("c2", 2, "10.0.0.0/8", true, "2 15169"),
            MakeDiff("c2", 2, "20.0.0.0/8", true, "2 64999")};
    }
    publish_diffs("c1", bin, d1);
    publish_diffs("c2", bin, d2);
    sync.Poll();
    consumer.Poll();
  }
  // Bin 6: AS64999's prefix withdrawn everywhere (outage).
  publish_diffs("c1", 6, {MakeDiff("c1", 1, "20.0.0.0/8", false)});
  publish_diffs("c2", 6, {MakeDiff("c2", 2, "20.0.0.0/8", false)});
  sync.Poll();
  consumer.Poll();

  // Per-AS series recorded for both ASes; alarm raised for AS64999.
  bool saw_as64999 = false;
  for (const auto& row : consumer.as_rows()) {
    if (row.key == "AS64999" && row.visible_prefixes == 1) saw_as64999 = true;
  }
  EXPECT_TRUE(saw_as64999);
  bool alarm = false;
  for (const auto& a : consumer.alarms()) {
    // The per-country IQ series and the per-AS series both collapse.
    if (a.key == "AS64999" || a.key == "IQ") alarm = true;
  }
  EXPECT_TRUE(alarm);
  // The surviving AS keeps its prefix visible in the final bin.
  const auto* t = consumer.vp_table({"c1", 1});
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->size(), 1u);
}

TEST(Analysis, AsGraphBfs) {
  analysis::AsGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(1, 4);  // shortcut
  g.AddEdge(5, 5);  // ignored self-loop
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  auto dist = g.Distances(1);
  EXPECT_EQ(dist[4], 1u);
  EXPECT_EQ(dist[3], 2u);
  EXPECT_TRUE(g.Distances(99).empty());
}

TEST(Analysis, RunPartitionedKeepsOrder) {
  std::vector<int> parts;
  for (int i = 0; i < 64; ++i) parts.push_back(i);
  auto results =
      analysis::RunPartitioned(parts, [](int p) { return p * p; }, 8);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[size_t(i)], i * i);
}

TEST(Analysis, RunPartitionedOnExecutorKeepsOrder) {
  core::Executor executor({.threads = 3});
  std::vector<int> parts;
  for (int i = 0; i < 64; ++i) parts.push_back(i);
  auto results =
      analysis::RunPartitioned(parts, [](int p) { return p * p; }, &executor);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[size_t(i)], i * i);
  // Empty partition list short-circuits without touching the pool.
  auto none = analysis::RunPartitioned(std::vector<int>{},
                                       [](int p) { return p; }, &executor);
  EXPECT_TRUE(none.empty());
}

TEST(Analysis, RunPartitionedNullExecutorFallsBackToThreads) {
  std::vector<int> parts{1, 2, 3, 4, 5};
  auto results = analysis::RunPartitioned(
      parts, [](int p) { return p + 10; }, static_cast<core::Executor*>(nullptr));
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(results[i], int(i) + 11);
}

TEST(Analysis, Stats) {
  std::vector<int> v{5, 1, 9, 3, 7};
  EXPECT_DOUBLE_EQ(analysis::Mean(v), 5.0);
  EXPECT_EQ(analysis::Max(v), 9);
  EXPECT_DOUBLE_EQ(analysis::Median(v), 5.0);
  EXPECT_DOUBLE_EQ(analysis::Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::Quantile(v, 1.0), 9.0);
  EXPECT_DOUBLE_EQ(analysis::Mean(std::vector<int>{}), 0.0);
}

}  // namespace
}  // namespace bgps::mq
