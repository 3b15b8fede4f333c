// Record-plane fan-out tier (pool/record_fanout + pool/fanout_server):
// the correctness pin of the whole tier. One RecordPublisher decodes
// the archive exactly once into an mq::Cluster; N RecordSubscribers
// with distinct filters each replay a stream whose record+elem
// fingerprint is byte-identical to a direct BgpStream run with the
// same filters — plus the decode-count pin (file opens happen once,
// not once per subscriber), retention backpressure (a stalled pinned
// subscriber parks publication with each topic at most one batch over
// its retention, then resumes losslessly), and the TCP front end
// streaming the same fingerprint over a real socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <tuple>

#include "broker/broker.hpp"
#include "core/data_interface.hpp"
#include "pool/fanout_server.hpp"
#include "pool/record_fanout.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps {
namespace {

broker::Broker::Options Historical() {
  broker::Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  return opt;
}

// The exact fingerprint fields the stress suite pins (and the REC/ELEM
// line protocol carries): any drift between a subscriber and a direct
// stream shows up as a tuple mismatch at a precise index.
using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct RunFp {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
};

// Drains any stream-shaped source: BgpStream and RecordSubscriber share
// the NextRecord()/Elems()/status() iteration surface by design.
template <typename Stream>
RunFp Drain(Stream& stream) {
  RunFp out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector.str(),
                             int(rec->dump_type), int(rec->status),
                             int(rec->position));
    for (const auto& e : stream.Elems(*rec))
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
  }
  return out;
}

void ExpectRunsEqual(const RunFp& got, const RunFp& want,
                     const std::string& label) {
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (size_t i = 0; i < want.records.size(); ++i)
    ASSERT_EQ(got.records[i], want.records[i]) << label << " record " << i;
  ASSERT_EQ(got.elems.size(), want.elems.size()) << label;
  for (size_t i = 0; i < want.elems.size(); ++i)
    ASSERT_EQ(got.elems[i], want.elems[i]) << label << " elem " << i;
}

core::FilterSet BaseFilters() {
  const auto& arch = testutil::GetSmallArchive();
  core::FilterSet fs;
  fs.interval = {arch.start, arch.end};
  return fs;
}

// The ground truth: a direct BgpStream run with `filters`, fresh broker
// session, synchronous decode.
RunFp DirectRun(const core::FilterSet& filters, size_t* file_opens = nullptr) {
  const auto& arch = testutil::GetSmallArchive();
  broker::Broker broker(arch.root, Historical());
  core::BrokerDataInterface di(&broker);
  core::BgpStream::Options opt;
  if (file_opens)
    opt.file_open_hook = [file_opens](const broker::DumpFileMeta&) {
      ++*file_opens;
    };
  core::BgpStream stream(opt);
  stream.filters() = filters;
  stream.SetDataInterface(&di);
  EXPECT_TRUE(stream.Start().ok());
  RunFp fp = Drain(stream);
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  return fp;
}

// Publishes the whole small archive (meta scope only — full elem
// extraction) into `cluster`, counting dump-file opens.
Result<pool::RecordPublisher::Stats> PublishArchive(
    mq::Cluster* cluster, size_t* file_opens = nullptr,
    std::optional<mq::RetentionOptions> topic_retention = std::nullopt,
    size_t batch_records = 64) {
  const auto& arch = testutil::GetSmallArchive();
  broker::Broker broker(arch.root, Historical());
  core::BrokerDataInterface di(&broker);
  core::BgpStream::Options opt;
  if (file_opens)
    opt.file_open_hook = [file_opens](const broker::DumpFileMeta&) {
      ++*file_opens;
    };
  core::BgpStream stream(opt);
  stream.SetInterval(arch.start, arch.end);
  stream.SetDataInterface(&di);
  BGPS_RETURN_IF_ERROR(stream.Start());
  pool::RecordPublisher::Options popt;
  popt.cluster = cluster;
  popt.batch_records = batch_records;
  popt.topic_retention = topic_retention;
  pool::RecordPublisher publisher(popt);
  return publisher.Run(stream);
}

// The tentpole pin: 4 subscribers, distinct filters, each replay
// fingerprint-equal to its direct-stream ground truth — off ONE decode
// of the archive (file_open_hook count identical to a single run, and
// untouched by subscriber drains).
TEST(FanOut, SubscribersMatchDirectStreamsByteForByte) {
  const auto& arch = testutil::GetSmallArchive();
  mq::Cluster cluster;
  size_t publisher_opens = 0;
  auto stats = PublishArchive(&cluster, &publisher_opens);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->records_published, 0u);
  EXPECT_GT(stats->elems_published, stats->records_published);
  EXPECT_EQ(stats->collectors_seen, 2u);

  size_t direct_opens = 0;
  RunFp unfiltered = DirectRun(BaseFilters(), &direct_opens);
  EXPECT_EQ(publisher_opens, direct_opens)
      << "publisher must decode exactly what one direct run decodes";

  std::vector<std::pair<std::string, core::FilterSet>> cases;
  cases.emplace_back("unfiltered", BaseFilters());
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(
        fs.AddOption("collector", arch.driver->collectors()[0].config().name)
            .ok());
    cases.emplace_back("collector", fs);
  }
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(fs.AddOption("elemtype", "announcements").ok());
    cases.emplace_back("announcements", fs);
  }
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(fs.AddOption("ipversion", "4").ok());
    fs.interval = {arch.start, arch.start + 1800};  // half the window
    cases.emplace_back("v4-halfwindow", fs);
  }

  for (const auto& [label, fs] : cases) {
    pool::RecordSubscriber::Options sopt;
    sopt.cluster = &cluster;
    sopt.filters = fs;
    pool::RecordSubscriber sub(sopt);
    ASSERT_TRUE(sub.Start().ok());
    RunFp got = Drain(sub);
    ASSERT_TRUE(sub.status().ok()) << label << ": " << sub.status().ToString();
    RunFp want = label == "unfiltered" ? unfiltered : DirectRun(fs);
    ExpectRunsEqual(got, want, label);
    EXPECT_FALSE(want.records.empty()) << label;
  }

  // N subscriber drains re-decoded nothing.
  EXPECT_EQ(publisher_opens, direct_opens);
}

// from_seq replays the publisher's suffix: a subscriber starting at
// ordinal K sees exactly the tail of the unfiltered run.
TEST(FanOut, FromSeqReplaysSuffix) {
  mq::Cluster cluster;
  auto stats = PublishArchive(&cluster);
  ASSERT_TRUE(stats.ok());
  const uint64_t total = stats->records_published;
  ASSERT_GT(total, 100u);

  RunFp full = DirectRun(BaseFilters());
  ASSERT_EQ(full.records.size(), total);

  const uint64_t from = total / 2;
  pool::RecordSubscriber::Options sopt;
  sopt.cluster = &cluster;
  sopt.filters = BaseFilters();
  sopt.from_seq = from;
  pool::RecordSubscriber sub(sopt);
  ASSERT_TRUE(sub.Start().ok());
  RunFp got = Drain(sub);
  ASSERT_TRUE(sub.status().ok());
  ASSERT_EQ(got.records.size(), total - from);
  for (size_t i = 0; i < got.records.size(); ++i)
    ASSERT_EQ(got.records[i], full.records[from + i]) << "record " << i;
  EXPECT_EQ(sub.next_seq(), total);
}

// Bounded retention is the only bound on the log: a stalled subscriber
// (pinned at offset 0, never polling) parks the publisher once a record
// topic holds max_messages + 1 batches; when the subscriber resumes,
// publication completes and the replay is still identical.
TEST(FanOut, StalledSubscriberBackpressuresPublisherBoundedly) {
  const auto& arch = testutil::GetSmallArchive();
  constexpr size_t kBatch = 32;
  const mq::RetentionOptions tight{/*max_messages=*/2, /*max_bytes=*/0};
  mq::Cluster cluster;

  // Pre-create the record topics so the subscriber can pin offset 0
  // before the publisher produces anything.
  std::vector<std::string> topics;
  for (const auto& c : arch.driver->collectors()) {
    topics.push_back(mq::RecordTopic(c.config().name));
    cluster.CreateTopic(topics.back(), 1, tight);
  }
  auto published = [&] {
    uint64_t n = 0;
    for (const auto& t : topics) n += cluster.EndOffset(t, 0);
    return n;
  };
  auto most_held = [&] {
    uint64_t held = 0;
    for (const auto& t : topics)
      held = std::max(held, cluster.EndOffset(t, 0) - cluster.FirstOffset(t, 0));
    return held;
  };

  RunFp got;
  std::atomic<bool> done{false};
  Result<pool::RecordPublisher::Stats> stats{pool::RecordPublisher::Stats{}};
  {
    pool::RecordSubscriber::Options sopt;
    sopt.cluster = &cluster;
    sopt.filters = BaseFilters();
    pool::RecordSubscriber sub(sopt);
    ASSERT_TRUE(sub.Start().ok());  // pins installed, then we stall

    std::thread publisher([&] {
      stats = PublishArchive(&cluster, nullptr, tight, kBatch);
      done.store(true);
    });

    // The publisher parks once a pinned topic is one batch past its
    // retention, and stays parked while the subscriber stalls.
    while (!done.load() && most_held() <= tight.max_messages)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_FALSE(done.load())
        << "publisher finished despite a stalled pinned subscriber";
    const uint64_t parked_at = published();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_FALSE(done.load());
    EXPECT_EQ(published(), parked_at);
    for (const auto& t : topics) {
      EXPECT_EQ(cluster.FirstOffset(t, 0), 0u) << t;
      EXPECT_LE(cluster.EndOffset(t, 0), tight.max_messages + 1) << t;
    }

    // Resume: draining advances the pins, truncation wakes the parked
    // publish, and publication completes losslessly.
    got = Drain(sub);
    publisher.join();
    ASSERT_TRUE(sub.status().ok()) << sub.status().ToString();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->batches_published, parked_at);
  }

  ExpectRunsEqual(got, DirectRun(BaseFilters()), "resumed replay");
}

// A record topic holding one hand-encoded batch, then a closed
// watermark covering every seq below `through`.
void PublishByHand(mq::Cluster& cluster, Bytes batch, uint64_t through) {
  mq::Message m;
  m.value = std::move(batch);
  cluster.Publish(mq::RecordTopic("rv2"), 0, std::move(m));
  mq::Message wm;
  wm.value = mq::EncodeRecordWatermark({through, /*closed=*/true});
  cluster.Publish(mq::kRecordWatermarkTopic, 0, std::move(wm));
}

// `n` records with seqs 10.., one elem each.
mq::RecordBatchMessage HandBatch(size_t n) {
  mq::RecordBatchMessage batch;
  batch.project = "routeviews";
  batch.collector = "rv2";
  for (size_t i = 0; i < n; ++i) {
    mq::PublishedRecord pr;
    pr.seq = 10 + i;
    pr.record.timestamp = Timestamp(1458000000 + i);
    core::Elem e;
    e.peer_asn = 65001;
    e.prefix = Prefix(IpAddress::V4(10, 0, uint8_t(i), 0), 24);
    e.as_path = bgp::AsPath::Sequence({65001, 3356});
    pr.record.prefetched_elems.emplace(1, e);
    batch.records.push_back(std::move(pr));
  }
  return batch;
}

// Drains `cluster` with an unfiltered subscriber: the seqs it emitted,
// in order, and the status it ended with.
std::pair<std::vector<uint64_t>, Status> DrainSeqs(mq::Cluster& cluster) {
  pool::RecordSubscriber::Options sopt;
  sopt.cluster = &cluster;
  sopt.max_consecutive_polls = 100;  // a backstop; the close ends it
  pool::RecordSubscriber sub(sopt);
  EXPECT_TRUE(sub.Start().ok());
  std::vector<uint64_t> seqs;
  while (auto rec = sub.NextRecord()) {
    seqs.push_back(sub.next_seq() - 1);
    EXPECT_EQ(sub.Elems(*rec).size(), 1u);
  }
  return {seqs, sub.status()};
}

// A batch malformed part way through yields the records before the bad
// one, in seq order, then ends the stream with the decoder's status.
TEST(FanOut, BatchCutInsideARecordYieldsTheRecordsBeforeIt) {
  mq::RecordBatchMessage batch = HandBatch(5);
  const Bytes full = mq::EncodeRecordBatch(batch);
  batch.records.resize(2);
  const auto two = ptrdiff_t(mq::EncodeRecordBatch(batch).size());
  mq::Cluster cluster;
  // Cut 5 bytes into the third record.
  PublishByHand(cluster, Bytes(full.begin(), full.begin() + two + 5), 15);
  auto [seqs, status] = DrainSeqs(cluster);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(status.code(), StatusCode::Corrupt) << status.ToString();
}

// A batch whose header fails (here a future version) yields none of its
// records.
TEST(FanOut, UnsupportedBatchVersionYieldsNoRecord) {
  Bytes wire = mq::EncodeRecordBatch(HandBatch(3));
  wire[1] = 2;  // the version byte
  mq::Cluster cluster;
  PublishByHand(cluster, std::move(wire), 13);
  auto [seqs, status] = DrainSeqs(cluster);
  EXPECT_TRUE(seqs.empty());
  EXPECT_EQ(status.code(), StatusCode::Unsupported) << status.ToString();
}

// --- TCP front end ---------------------------------------------------------

// `rcvbuf` > 0 shrinks the client's receive buffer before connecting.
int ConnectLoopback(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

std::string ReadToEof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, size_t(n));
  }
  return out;
}

// Parses the REC/ELEM transcript back into fingerprints. Returns the
// terminal line ("END ok" / "ERR ...") for the caller to assert on.
std::string ParseTranscript(const std::string& transcript, RunFp& out) {
  std::istringstream in(transcript);
  std::string line, terminal;
  while (std::getline(in, line)) {
    if (line.rfind("REC ", 0) == 0) {
      std::istringstream rec(line.substr(4));
      uint64_t seq, nelems;
      int64_t ts;
      std::string collector;
      int dump_type, status, position;
      rec >> seq >> ts >> collector >> dump_type >> status >> position >>
          nelems;
      out.records.emplace_back(Timestamp(ts), collector, dump_type, status,
                               position);
    } else if (line.rfind("ELEM ", 0) == 0) {
      // type|time|peer_asn|prefix|as_path — the path may be empty or
      // contain spaces, so split on '|' (exactly 5 fields).
      std::string body = line.substr(5);
      std::vector<std::string> f;
      size_t start = 0;
      for (int i = 0; i < 4; ++i) {
        size_t bar = body.find('|', start);
        if (bar == std::string::npos) break;
        f.push_back(body.substr(start, bar - start));
        start = bar + 1;
      }
      f.push_back(body.substr(start));
      if (f.size() != 5) return "BAD ELEM LINE: " + line;
      out.elems.emplace_back(std::stoi(f[0]), Timestamp(std::stoll(f[1])),
                             uint32_t(std::stoul(f[2])), f[3], f[4]);
    } else {
      terminal = line;
    }
  }
  return terminal;
}

TEST(FanOut, TcpServerStreamsIdenticalTranscript) {
  const auto& arch = testutil::GetSmallArchive();
  mq::Cluster cluster;
  ASSERT_TRUE(PublishArchive(&cluster).ok());

  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string collector = arch.driver->collectors()[1].config().name;
  core::FilterSet fs = BaseFilters();
  ASSERT_TRUE(fs.AddOption("collector", collector).ok());

  int fd = ConnectLoopback(server.port());
  std::ostringstream req;
  req << "FILTER collector " << collector << "\n"
      << "FILTER interval " << arch.start << "," << arch.end << "\n"
      << "GO\n";
  std::string r = req.str();
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  std::string transcript = ReadToEof(fd);
  ::close(fd);
  server.Stop();

  RunFp got;
  EXPECT_EQ(ParseTranscript(transcript, got), "END ok");
  ExpectRunsEqual(got, DirectRun(fs), "tcp transcript");
  EXPECT_FALSE(got.records.empty());
  EXPECT_EQ(server.connections_served(), 1u);
}

// A client that sends GO and then never reads leaves its connection
// thread in send() once the loopback buffers are full; Stop() must
// still return promptly instead of joining that thread forever.
TEST(FanOut, TcpServerStopsWhileAClientIsNotReading) {
  // About 8 MB of transcript (60k ELEM lines of ~135 bytes), well past
  // the ~3 MB the loopback buffers queue against a 4 KiB receive buffer.
  constexpr size_t kBatches = 10, kRecords = 100, kElems = 60;
  std::vector<bgp::Asn> hops;
  for (bgp::Asn asn = 65001; asn < 65017; ++asn) hops.push_back(asn);
  mq::Cluster cluster;
  uint64_t seq = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    mq::RecordBatchMessage batch;
    batch.project = "routeviews";
    batch.collector = "rv2";
    for (size_t r = 0; r < kRecords; ++r) {
      mq::PublishedRecord pr;
      pr.seq = seq++;
      pr.record.timestamp = Timestamp(1458000000 + pr.seq);
      core::Elem e;
      e.peer_asn = 65001;
      e.prefix = Prefix(IpAddress::V4(10, 0, 0, 0), 24);
      e.as_path = bgp::AsPath::Sequence(hops);
      pr.record.prefetched_elems.emplace(kElems, e);
      batch.records.push_back(std::move(pr));
    }
    mq::Message m;
    m.value = mq::EncodeRecordBatch(batch);
    cluster.Publish(mq::RecordTopic("rv2"), 0, std::move(m));
  }
  mq::Message wm;
  wm.value = mq::EncodeRecordWatermark({seq, /*closed=*/true});
  cluster.Publish(mq::kRecordWatermarkTopic, 0, std::move(wm));

  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectLoopback(server.port(), /*rcvbuf=*/4096);
  const std::string go = "GO\n";
  ASSERT_EQ(::send(fd, go.data(), go.size(), 0), ssize_t(go.size()));
  // Give the server time to fill the buffers and block in send().
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto stop_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  ::close(fd);
  EXPECT_LT(stop_s, 1.0);
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST(FanOut, TcpServerRejectsBadCommands) {
  mq::Cluster cluster;
  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectLoopback(server.port());
  std::string r = "FILTER nosuchkey x\n";
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  std::string reply = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;

  fd = ConnectLoopback(server.port());
  r = "FLY\n";
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  reply = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR unknown command", 0), 0u) << reply;
  server.Stop();
}

}  // namespace
}  // namespace bgps
