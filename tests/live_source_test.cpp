// Live-path conformance layer: a BMP/exabgp session ingested through
// pool::LiveSource and consumed as a weight-4 StreamPool tenant must
// produce records and elems byte-identical to directly decoding the
// same payloads, with the governor ledger balancing to zero after
// teardown — the tentpole acceptance criterion of the live tier.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "exabgp/exabgp.hpp"
#include "pool/live_source.hpp"
#include "pool/stream_pool.hpp"
#include "tests/live_test_util.hpp"

namespace bgps {
namespace {

namespace fs = std::filesystem;
using livetest::Drain;
using livetest::StreamRun;

class LiveSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bgps_live_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Drains a plain (non-pool) live stream reading `feed`.
  StreamRun DrainFeed(core::LiveFeedInterface* feed) {
    core::BgpStream stream(livetest::LiveStreamOptions());
    stream.SetLive(0);
    stream.SetDataInterface(feed);
    EXPECT_TRUE(stream.Start().ok());
    return Drain(stream);
  }

  // Drains a single-file baseline archive through a plain stream.
  StreamRun DrainBaseline(const broker::DumpFileMeta& meta) {
    livetest::VectorDataInterface di({meta});
    core::BgpStream stream;
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    EXPECT_TRUE(stream.Start().ok());
    return Drain(stream);
  }

  fs::path dir_;
};

TEST_F(LiveSourceTest, CreateValidatesOptions) {
  pool::LiveSource::Options opt;
  auto no_dir = pool::LiveSource::Create(opt);
  ASSERT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().message(), "LiveSource: spool_dir is required");

  opt.spool_dir = Path("spool");
  opt.flush_records = 0;
  auto no_flush = pool::LiveSource::Create(std::move(opt));
  ASSERT_FALSE(no_flush.ok());
  EXPECT_EQ(no_flush.status().message(),
            "LiveSource: flush_records must be >= 1");
}

TEST_F(LiveSourceTest, LiveFeedInterfaceServesPublicationOrder) {
  core::LiveFeedInterface feed;
  core::FilterSet filters;

  // Open + empty: retry_later (after the long-poll bound), not
  // end_of_stream.
  auto batch = feed.NextBatch(filters);
  EXPECT_TRUE(batch.retry_later);
  EXPECT_FALSE(batch.end_of_stream);
  EXPECT_TRUE(batch.files.empty());

  broker::DumpFileMeta a, b;
  a.path = "a.mrt";
  a.start = 100;
  b.path = "b.mrt";
  b.start = 50;  // published later, must still be served second
  feed.Push(a);
  feed.Push(b);
  EXPECT_EQ(feed.published(), 2u);

  // One file per batch, in publication order (not time order): the
  // consuming stream's determinism comes from the publisher's sequence.
  batch = feed.NextBatch(filters);
  ASSERT_EQ(batch.files.size(), 1u);
  EXPECT_EQ(batch.files[0].path, "a.mrt");
  batch = feed.NextBatch(filters);
  ASSERT_EQ(batch.files.size(), 1u);
  EXPECT_EQ(batch.files[0].path, "b.mrt");

  feed.Close();
  EXPECT_TRUE(feed.closed());
  feed.Push(a);  // dropped after Close
  batch = feed.NextBatch(filters);
  EXPECT_TRUE(batch.end_of_stream);
  EXPECT_EQ(feed.published(), 2u);
}

// Pins the long-poll: a NextBatch blocked on an open, drained feed
// returns the file another thread pushes, well inside the 1 s bound.
TEST_F(LiveSourceTest, BlockedNextBatchWakesOnPush) {
  core::LiveFeedInterface feed;
  broker::DumpFileMeta a;
  a.path = "a.mrt";
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    feed.Push(a);
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = feed.NextBatch(core::FilterSet{});
  const auto waited = std::chrono::steady_clock::now() - t0;
  publisher.join();
  ASSERT_EQ(batch.files.size(), 1u);
  EXPECT_EQ(batch.files[0].path, "a.mrt");
  EXPECT_FALSE(batch.retry_later);
  EXPECT_LT(waited, std::chrono::milliseconds(500));
}

// Close() from another thread ends a blocked NextBatch at once.
TEST_F(LiveSourceTest, BlockedNextBatchEndsOnClose) {
  core::LiveFeedInterface feed;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    feed.Close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = feed.NextBatch(core::FilterSet{});
  const auto waited = std::chrono::steady_clock::now() - t0;
  closer.join();
  EXPECT_TRUE(batch.end_of_stream);
  EXPECT_TRUE(batch.files.empty());
  EXPECT_LT(waited, std::chrono::milliseconds(500));
}

// A live stream over an active feed never reaches its poll loop: every
// micro-dump, published 20 ms apart, wakes the blocked consumer.
TEST_F(LiveSourceTest, ActiveFeedDrainsWithoutPollWait) {
  auto frames = livetest::ScriptedBmpSession();
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 1;  // one micro-dump per record
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());

  std::atomic<size_t> poll_waits{0};
  core::BgpStream::Options sopt = livetest::LiveStreamOptions();
  sopt.poll_wait = [&poll_waits] { ++poll_waits; };
  core::BgpStream stream(std::move(sopt));
  stream.SetLive(0);
  stream.SetDataInterface((*source)->feed());
  ASSERT_TRUE(stream.Start().ok());

  Status ingest = OkStatus();
  std::thread session([&] {
    for (const auto& frame : frames) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ingest = (*source)->IngestBmp(bmp::Encode(frame));
      if (!ingest.ok()) break;
    }
    if (ingest.ok()) ingest = (*source)->Close();
  });
  StreamRun live = Drain(stream);
  session.join();
  ASSERT_TRUE(ingest.ok()) << ingest.ToString();
  ASSERT_TRUE(live.status.ok()) << live.status.ToString();

  EXPECT_EQ((*source)->stats().dumps_published, 7u);
  EXPECT_EQ(live.records.size(), 7u);
  EXPECT_EQ(poll_waits.load(), 0u);
  auto meta = livetest::WriteBaselineDump(livetest::DirectMrtRecords(frames),
                                          Path("base.mrt"));
  EXPECT_EQ(live.elems, DrainBaseline(meta).elems);
}

// A quiet session never strands records: with a 64-record flush and a
// consumer blocked waiting for data, each record is published as it
// arrives instead of waiting for 63 more or for Close().
TEST_F(LiveSourceTest, QuietSessionReachesAWaitingConsumer) {
  auto frames = livetest::ScriptedBmpSession();
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 64;
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());

  core::BgpStream stream(livetest::LiveStreamOptions());
  stream.SetLive(0);
  stream.SetDataInterface((*source)->feed());
  ASSERT_TRUE(stream.Start().ok());
  std::atomic<size_t> held{0};
  std::vector<Timestamp> times;  // written by the consumer until joined
  std::thread consumer([&] {
    while (auto rec = stream.NextRecord()) {
      times.push_back(rec->timestamp);
      held.fetch_add(1);
    }
  });

  // After each frame that yields a record, the consumer must hold it
  // within 1 s. On the first miss, stop waiting: Close() below still
  // ends the stream, so the test fails instead of hanging.
  size_t missed_at = 0;  // 1-based frame index of the first miss
  for (size_t i = 0; i < frames.size() && missed_at == 0; ++i) {
    Status ingested = (*source)->IngestBmp(bmp::Encode(frames[i]));
    if (!ingested.ok()) {
      ADD_FAILURE() << ingested.ToString();
      break;
    }
    const size_t sent = livetest::DirectMrtRecords(
        {frames.begin(), frames.begin() + i + 1}).size();
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (held.load() < sent && std::chrono::steady_clock::now() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (held.load() < sent) missed_at = i + 1;
  }
  EXPECT_TRUE((*source)->Close().ok());
  consumer.join();
  EXPECT_EQ(missed_at, 0u) << "frame " << missed_at
                           << "'s record did not reach the waiting consumer";
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();

  std::vector<Timestamp> want;
  for (const auto& [ts, encoded] : livetest::DirectMrtRecords(frames))
    want.push_back(ts);
  EXPECT_EQ(times, want);
}

// Micro-dumps are consecutive byte ranges of one spool segment, opened
// at the first flush: 7 records in flushes of 2 make 4 ranges that
// tile the file, each reading back exactly its records.
TEST_F(LiveSourceTest, MicroDumpsAppendToOneSegment) {
  auto frames = livetest::ScriptedBmpSession();
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 2;
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(fs::is_empty(Path("spool")));
  ASSERT_TRUE((*source)->IngestBmp(livetest::EncodeSession(frames)).ok());
  ASSERT_TRUE((*source)->Close().ok());

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(Path("spool"))) {
    EXPECT_TRUE(entry.is_regular_file()) << entry.path();
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  const std::string segment = Path("spool") + "/live.mrt";
  EXPECT_EQ(files[0].string(), segment);

  uint64_t covered = 0;
  std::vector<size_t> records_per_dump;
  while (true) {
    auto batch = (*source)->feed()->NextBatch(core::FilterSet{});
    if (batch.end_of_stream) break;
    ASSERT_EQ(batch.files.size(), 1u);
    const broker::DumpFileMeta& meta = batch.files[0];
    EXPECT_EQ(meta.path, segment);
    EXPECT_EQ(meta.offset, covered);
    EXPECT_GT(meta.length, 0u);
    covered += meta.length;
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(meta.path, meta.offset, meta.length).ok());
    size_t n = 0;
    while (true) {
      auto rec = reader.Next();
      if (!rec.ok()) {
        EXPECT_EQ(rec.status().code(), StatusCode::EndOfStream);
        break;
      }
      ++n;
    }
    records_per_dump.push_back(n);
  }
  EXPECT_EQ(records_per_dump, (std::vector<size_t>{2, 2, 2, 1}));
  EXPECT_EQ(covered, fs::file_size(segment));
}

TEST_F(LiveSourceTest, BmpSessionByteIdenticalToDirectDecode) {
  auto frames = livetest::ScriptedBmpSession();

  // Live path: whole session in one ingest, single micro-dump.
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 1000;  // flush only at Close
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_TRUE((*source)->IngestBmp(livetest::EncodeSession(frames)).ok());
  ASSERT_TRUE((*source)->Close().ok());

  auto stats = (*source)->stats();
  EXPECT_EQ(stats.messages_decoded, frames.size());
  EXPECT_EQ(stats.fsm_records, 3u);  // two Peer Ups + one Peer Down
  EXPECT_EQ(stats.records_spooled, 7u);  // everything but the Initiation
  EXPECT_EQ(stats.dumps_published, 1u);
  EXPECT_EQ(stats.corrupt_frames, 0u);

  StreamRun live = DrainFeed((*source)->feed());
  ASSERT_TRUE(live.status.ok()) << live.status.ToString();

  // Baseline: direct decode of the same payloads, written as one dump.
  auto baseline_records = livetest::DirectMrtRecords(frames);
  ASSERT_EQ(baseline_records.size(), 7u);
  auto meta = livetest::WriteBaselineDump(baseline_records, Path("base.mrt"));
  StreamRun baseline = DrainBaseline(meta);
  ASSERT_TRUE(baseline.status.ok());

  // Byte-identity: full record and elem fingerprints, dump_time and
  // position included.
  EXPECT_EQ(live.records, baseline.records);
  EXPECT_EQ(live.elems, baseline.elems);
  EXPECT_EQ(live.records.size(), 7u);
}

TEST_F(LiveSourceTest, BmpSessionThroughPoolLiveTenant) {
  auto frames = livetest::ScriptedBmpSession();

  auto pool = StreamPool::Create({.threads = 2, .record_budget = 64});
  ASSERT_TRUE(pool.ok());

  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 1000;
  opt.governor = (*pool)->governor();
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->IngestBmp(livetest::EncodeSession(frames)).ok());
  ASSERT_TRUE((*source)->Close().ok());

  StreamRun live;
  {
    auto stream = (*pool)->CreateStream(
        livetest::LiveStreamOptions(),
        {.weight = 4, .name = "live"});
    stream->SetLive(0);
    stream->SetDataInterface((*source)->feed());
    ASSERT_TRUE(stream->Start().ok());
    live = Drain(*stream);
  }
  ASSERT_TRUE(live.status.ok()) << live.status.ToString();

  auto meta = livetest::WriteBaselineDump(livetest::DirectMrtRecords(frames),
                                          Path("base.mrt"));
  StreamRun baseline = DrainBaseline(meta);

  EXPECT_EQ(live.records, baseline.records);
  EXPECT_EQ(live.elems, baseline.elems);

  // Teardown accounting: source released its leases at Close, the
  // tenant drained everything — the shared ledger balances to zero.
  source->reset();
  EXPECT_EQ((*pool)->records_in_use(), 0u);
  EXPECT_TRUE((*pool)->governor()->health().ok());
}

TEST_F(LiveSourceTest, ExaBgpSessionByteIdenticalToDirectDecode) {
  // An exabgp session: state up, three updates, state down.
  std::vector<exabgp::ExaBgpMessage> msgs;
  {
    exabgp::ExaBgpMessage up;
    up.kind = exabgp::ExaBgpMessage::Kind::State;
    up.time = 1451606400;
    up.peer_address = *IpAddress::Parse("10.0.0.9");
    up.peer_asn = 65009;
    up.local_asn = 64512;
    up.state = bgp::FsmState::Established;
    msgs.push_back(up);
    for (int i = 0; i < 3; ++i) {
      exabgp::ExaBgpMessage u;
      u.kind = exabgp::ExaBgpMessage::Kind::Update;
      u.time = 1451606401 + i;
      u.peer_address = *IpAddress::Parse("10.0.0.9");
      u.peer_asn = 65009;
      u.local_asn = 64512;
      u.update.attrs.as_path = bgp::AsPath::Sequence({65009, 3356});
      u.update.attrs.next_hop = *IpAddress::Parse("10.0.0.9");
      u.update.announced = {livetest::Pfx("10." + std::to_string(i) +
                                          ".0.0/16")};
      msgs.push_back(u);
    }
    exabgp::ExaBgpMessage down = up;
    down.time = 1451606405;
    down.state = bgp::FsmState::Idle;
    msgs.push_back(down);
  }

  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 1000;
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  for (const auto& m : msgs)
    ASSERT_TRUE((*source)->IngestExaBgpLine(exabgp::EncodeLine(m)).ok());
  ASSERT_TRUE((*source)->Close().ok());

  auto stats = (*source)->stats();
  EXPECT_EQ(stats.messages_decoded, msgs.size());
  EXPECT_EQ(stats.fsm_records, 2u);

  StreamRun live = DrainFeed((*source)->feed());
  ASSERT_TRUE(live.status.ok());

  // Baseline: EncodeAsMrt of each decoded line — the direct transcode.
  std::vector<std::pair<Timestamp, Bytes>> baseline_records;
  for (const auto& m : msgs) {
    auto rt = exabgp::DecodeLine(exabgp::EncodeLine(m));
    ASSERT_TRUE(rt.ok());
    baseline_records.emplace_back(rt->time, exabgp::EncodeAsMrt(*rt));
  }
  auto meta = livetest::WriteBaselineDump(baseline_records, Path("base.mrt"));
  StreamRun baseline = DrainBaseline(meta);
  ASSERT_TRUE(baseline.status.ok());

  EXPECT_EQ(live.records, baseline.records);
  EXPECT_EQ(live.elems, baseline.elems);
  EXPECT_EQ(live.records.size(), msgs.size());
}

TEST_F(LiveSourceTest, MalformedExaBgpLinesCountedNotFatal) {
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE((*source)->IngestExaBgpLine("this is not json").ok());
  EXPECT_TRUE((*source)->IngestExaBgpLine("{}").ok());
  EXPECT_TRUE((*source)->IngestExaBgpLine("").ok());  // blank: ignored
  auto stats = (*source)->stats();
  EXPECT_EQ(stats.corrupt_frames, 2u);
  EXPECT_EQ(stats.messages_decoded, 0u);
  ASSERT_TRUE((*source)->Close().ok());
  EXPECT_EQ((*source)->stats().dumps_published, 0u);
}

TEST_F(LiveSourceTest, FlushBoundariesDoNotChangeTheElemStream) {
  auto frames = livetest::ScriptedBmpSession();

  auto run_with_flush = [&](size_t flush_records) {
    pool::LiveSource::Options opt;
    opt.spool_dir = Path("spool-" + std::to_string(flush_records));
    opt.flush_records = flush_records;
    auto source = pool::LiveSource::Create(std::move(opt));
    EXPECT_TRUE(source.ok());
    EXPECT_TRUE((*source)->IngestBmp(livetest::EncodeSession(frames)).ok());
    EXPECT_TRUE((*source)->Close().ok());
    return std::make_pair(DrainFeed((*source)->feed()),
                          (*source)->stats().dumps_published);
  };

  auto [one_dump, n1] = run_with_flush(1000);
  auto [micro_dumps, n2] = run_with_flush(2);
  EXPECT_EQ(n1, 1u);
  EXPECT_EQ(n2, 4u);  // 7 records in dumps of 2

  // Micro-dump boundaries move dump_time/position annotations, but the
  // record timeline and every elem must be unchanged.
  ASSERT_EQ(one_dump.records.size(), micro_dumps.records.size());
  for (size_t i = 0; i < one_dump.records.size(); ++i) {
    EXPECT_EQ(std::get<0>(one_dump.records[i]),
              std::get<0>(micro_dumps.records[i]));  // timestamp
    EXPECT_EQ(std::get<3>(one_dump.records[i]),
              std::get<3>(micro_dumps.records[i]));  // status
  }
  EXPECT_EQ(one_dump.elems, micro_dumps.elems);
}

TEST_F(LiveSourceTest, PeerLocalAsnLearnedFromPeerUp) {
  auto frames = livetest::ScriptedBmpSession();
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  opt.flush_records = 1000;
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->IngestBmp(livetest::EncodeSession(frames)).ok());
  ASSERT_TRUE((*source)->Close().ok());

  auto scan = mrt::ScanFile(Path("spool") + "/live.mrt");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->messages.size(), 7u);
  // Peer 1's update carries the local ASN learned from its Peer Up;
  // peer 2's carries its own.
  const auto& m1 = std::get<mrt::Bgp4mpMessage>(scan->messages[2].body);
  EXPECT_EQ(m1.peer_asn, 65001u);
  EXPECT_EQ(m1.local_asn, 64512u);
  const auto& m2 = std::get<mrt::Bgp4mpMessage>(scan->messages[3].body);
  EXPECT_EQ(m2.peer_asn, 65002u);
  EXPECT_EQ(m2.local_asn, 64513u);
  // The Peer Down maps to a state change for the right peer.
  const auto& sc = std::get<mrt::Bgp4mpStateChange>(scan->messages[5].body);
  EXPECT_EQ(sc.peer_asn, 65002u);
  EXPECT_EQ(sc.new_state, bgp::FsmState::Idle);
}

TEST_F(LiveSourceTest, IngestAfterCloseRejected) {
  pool::LiveSource::Options opt;
  opt.spool_dir = Path("spool");
  auto source = pool::LiveSource::Create(std::move(opt));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->Close().ok());
  ASSERT_TRUE((*source)->Close().ok());  // idempotent
  Bytes some{1, 2, 3};
  EXPECT_FALSE((*source)->IngestBmp(some).ok());
  EXPECT_FALSE((*source)->IngestExaBgpLine("{}").ok());
}

}  // namespace
}  // namespace bgps
