#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "mrt/encode.hpp"
#include "mrt/file.hpp"

namespace bgps::mrt {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

PeerIndexTable MakePit() {
  PeerIndexTable pit;
  pit.collector_bgp_id = 0xC0000201;
  pit.view_name = "test-view";
  pit.peers.push_back({1, IpAddress::V4(10, 0, 0, 1), 65001});
  pit.peers.push_back({2, *IpAddress::Parse("2001:db8::2"), 4200000002});
  return pit;
}

TEST(MrtCodec, PeerIndexTableRoundTrip) {
  Bytes wire = EncodePeerIndexTable(1458000000, MakePit());
  BufReader r(wire);
  auto raw = DecodeRawRecord(r);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->timestamp, 1458000000);
  EXPECT_EQ(raw->type, uint16_t(MrtType::TableDumpV2));
  auto msg = DecodeRecord(*raw);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(msg->is_peer_index());
  const auto& pit = std::get<PeerIndexTable>(msg->body);
  EXPECT_EQ(pit.view_name, "test-view");
  ASSERT_EQ(pit.peers.size(), 2u);
  EXPECT_EQ(pit.peers[0].asn, 65001u);
  EXPECT_EQ(pit.peers[1].asn, 4200000002u);
  EXPECT_TRUE(pit.peers[1].address.is_v6());
}

RibPrefix MakeRib() {
  RibPrefix rib;
  rib.sequence = 7;
  rib.prefix = P("192.168.0.0/16");
  RibEntry e;
  e.peer_index = 0;
  e.originated_time = 1458000000;
  e.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 15169});
  e.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  e.attrs.communities = {bgp::Community(3356, 100)};
  rib.entries.push_back(e);
  RibEntry e2 = e;
  e2.peer_index = 1;
  e2.attrs.as_path = bgp::AsPath::Sequence({4200000002, 15169});
  rib.entries.push_back(e2);
  return rib;
}

TEST(MrtCodec, RibV4RoundTrip) {
  Bytes wire = EncodeRibPrefix(1458000100, MakeRib(), IpFamily::V4);
  BufReader r(wire);
  auto raw = DecodeRawRecord(r);
  ASSERT_TRUE(raw.ok());
  auto msg = DecodeRecord(*raw);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(msg->is_rib());
  const auto& rib = std::get<RibPrefix>(msg->body);
  EXPECT_EQ(rib.sequence, 7u);
  EXPECT_EQ(rib.prefix, P("192.168.0.0/16"));
  ASSERT_EQ(rib.entries.size(), 2u);
  EXPECT_EQ(rib.entries[0].attrs.as_path.ToString(), "65001 3356 15169");
  EXPECT_EQ(rib.entries[1].peer_index, 1);
}

TEST(MrtCodec, RibV6RoundTrip) {
  RibPrefix rib;
  rib.sequence = 1;
  rib.prefix = P("2001:db8:7::/48");
  RibEntry e;
  e.peer_index = 0;
  e.originated_time = 1458000000;
  e.attrs.as_path = bgp::AsPath::Sequence({65001});
  bgp::MpReach mp;
  mp.next_hop = *IpAddress::Parse("2001:db8::1");
  e.attrs.mp_reach = mp;
  rib.entries.push_back(e);
  Bytes wire = EncodeRibPrefix(1458000100, rib, IpFamily::V6);
  BufReader r(wire);
  auto msg = DecodeRecord(*DecodeRawRecord(r));
  ASSERT_TRUE(msg.ok());
  const auto& decoded = std::get<RibPrefix>(msg->body);
  EXPECT_EQ(decoded.prefix, P("2001:db8:7::/48"));
  EXPECT_EQ(decoded.prefix.family(), IpFamily::V6);
}

Bgp4mpMessage MakeUpdateMsg() {
  Bgp4mpMessage m;
  m.peer_asn = 65001;
  m.local_asn = 64512;
  m.peer_address = IpAddress::V4(10, 0, 0, 1);
  m.local_address = IpAddress::V4(192, 0, 2, 1);
  m.update.announced = {P("172.16.0.0/12")};
  m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356});
  m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  return m;
}

TEST(MrtCodec, Bgp4mpUpdateRoundTrip) {
  Bytes wire = EncodeBgp4mpUpdate(1458000200, MakeUpdateMsg());
  BufReader r(wire);
  auto msg = DecodeRecord(*DecodeRawRecord(r));
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(msg->is_message());
  const auto& m = std::get<Bgp4mpMessage>(msg->body);
  EXPECT_EQ(m.peer_asn, 65001u);
  EXPECT_EQ(m.local_asn, 64512u);
  EXPECT_EQ(m.message_type, bgp::MessageType::Update);
  ASSERT_EQ(m.update.announced.size(), 1u);
  EXPECT_EQ(m.update.announced[0], P("172.16.0.0/12"));
  EXPECT_EQ(m.update.attrs.as_path.ToString(), "65001 3356");
}

TEST(MrtCodec, StateChangeRoundTrip) {
  Bgp4mpStateChange sc;
  sc.peer_asn = 65001;
  sc.local_asn = 64512;
  sc.peer_address = IpAddress::V4(10, 0, 0, 1);
  sc.local_address = IpAddress::V4(192, 0, 2, 1);
  sc.old_state = bgp::FsmState::Established;
  sc.new_state = bgp::FsmState::Idle;
  Bytes wire = EncodeBgp4mpStateChange(1458000300, sc);
  BufReader r(wire);
  auto msg = DecodeRecord(*DecodeRawRecord(r));
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(msg->is_state_change());
  const auto& d = std::get<Bgp4mpStateChange>(msg->body);
  EXPECT_EQ(d.old_state, bgp::FsmState::Established);
  EXPECT_EQ(d.new_state, bgp::FsmState::Idle);
}

TEST(MrtCodec, UnsupportedTypeReported) {
  RawRecord raw;
  raw.timestamp = 1;
  raw.type = 12;  // TABLE_DUMP (v1) — not implemented
  raw.subtype = 1;
  auto msg = DecodeRecord(raw);
  EXPECT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::Unsupported);
}

TEST(MrtCodec, CorruptBodyReported) {
  Bytes wire = EncodeRibPrefix(1458000100, MakeRib(), IpFamily::V4);
  BufReader r(wire);
  auto raw = DecodeRawRecord(r);
  ASSERT_TRUE(raw.ok());
  raw->body = raw->body.subspan(0, raw->body.size() / 2);  // truncate body
  auto msg = DecodeRecord(*raw);
  EXPECT_FALSE(msg.ok());
}

TEST(MrtCodec, MultipleRecordsInOneBuffer) {
  BufWriter w;
  w.bytes(EncodePeerIndexTable(100, MakePit()));
  w.bytes(EncodeRibPrefix(101, MakeRib(), IpFamily::V4));
  w.bytes(EncodeBgp4mpUpdate(102, MakeUpdateMsg()));
  Bytes all = w.take();
  BufReader r(all);
  int count = 0;
  Timestamp last = 0;
  while (true) {
    auto raw = DecodeRawRecord(r);
    if (!raw.ok()) {
      EXPECT_EQ(raw.status().code(), StatusCode::EndOfStream);
      break;
    }
    EXPECT_GE(raw->timestamp, last);
    last = raw->timestamp;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

class MrtFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("mrt_test_" + std::to_string(::getpid()) + ".mrt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(MrtFileTest, WriteThenScan) {
  MrtFileWriter w;
  ASSERT_TRUE(w.Open(path_.string()).ok());
  ASSERT_TRUE(w.Write(EncodePeerIndexTable(100, MakePit())).ok());
  ASSERT_TRUE(w.Write(EncodeRibPrefix(101, MakeRib(), IpFamily::V4)).ok());
  ASSERT_TRUE(w.Write(EncodeBgp4mpUpdate(102, MakeUpdateMsg())).ok());
  ASSERT_TRUE(w.Close().ok());

  auto scan = ScanFile(path_.string());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->messages.size(), 3u);
  EXPECT_EQ(scan->corrupt, 0u);
  EXPECT_EQ(scan->unsupported, 0u);
}

TEST_F(MrtFileTest, EmptyFileIsCleanEnd) {
  MrtFileWriter w;
  ASSERT_TRUE(w.Open(path_.string()).ok());
  ASSERT_TRUE(w.Close().ok());
  MrtFileReader r;
  ASSERT_TRUE(r.Open(path_.string()).ok());
  auto rec = r.Next();
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::EndOfStream);
}

TEST_F(MrtFileTest, TruncatedFileReportsCorruptOnce) {
  MrtFileWriter w;
  ASSERT_TRUE(w.Open(path_.string()).ok());
  Bytes rec = EncodeBgp4mpUpdate(102, MakeUpdateMsg());
  rec.resize(rec.size() - 5);  // cut mid-body
  ASSERT_TRUE(w.WriteRaw(rec).ok());
  ASSERT_TRUE(w.Close().ok());

  MrtFileReader r;
  ASSERT_TRUE(r.Open(path_.string()).ok());
  auto first = r.Next();
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::Corrupt);
  auto second = r.Next();
  EXPECT_EQ(second.status().code(), StatusCode::EndOfStream);
}

TEST_F(MrtFileTest, GarbageHeaderIsCorrupt) {
  MrtFileWriter w;
  ASSERT_TRUE(w.Open(path_.string()).ok());
  Bytes garbage(300, 0xFF);  // length field will be implausible
  ASSERT_TRUE(w.WriteRaw(garbage).ok());
  ASSERT_TRUE(w.Close().ok());
  MrtFileReader r;
  ASSERT_TRUE(r.Open(path_.string()).ok());
  EXPECT_EQ(r.Next().status().code(), StatusCode::Corrupt);
}

TEST_F(MrtFileTest, MissingFileIsIoError) {
  MrtFileReader r;
  EXPECT_EQ(r.Open("/nonexistent/dir/file.mrt").code(), StatusCode::IoError);
}

// Three updates at t = 100, 101, 102 in one file; returns each
// record's size in bytes.
std::vector<uint64_t> WriteThreeUpdates(const std::string& path) {
  MrtFileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  std::vector<uint64_t> sizes;
  for (Timestamp t = 100; t < 103; ++t) {
    Bytes rec = EncodeBgp4mpUpdate(t, MakeUpdateMsg());
    sizes.push_back(rec.size());
    EXPECT_TRUE(w.Write(rec).ok());
  }
  EXPECT_TRUE(w.Close().ok());
  return sizes;
}

// Timestamps of the records in a range, and the status that ended it.
std::pair<std::vector<Timestamp>, std::vector<StatusCode>> ReadRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  MrtFileReader r;
  EXPECT_TRUE(r.Open(path, offset, length).ok());
  std::vector<Timestamp> records;
  std::vector<StatusCode> errors;
  while (true) {
    auto rec = r.Next();
    if (rec.ok()) {
      records.push_back(rec->timestamp);
      continue;
    }
    errors.push_back(rec.status().code());
    if (rec.status().code() == StatusCode::EndOfStream) break;
  }
  return {records, errors};
}

TEST_F(MrtFileTest, RangeOnRecordBoundariesYieldsExactlyItsRecords) {
  auto sizes = WriteThreeUpdates(path_.string());
  const std::vector<StatusCode> clean{StatusCode::EndOfStream};

  auto middle = ReadRange(path_.string(), sizes[0], sizes[1]);
  EXPECT_EQ(middle.first, std::vector<Timestamp>{101});
  EXPECT_EQ(middle.second, clean);

  auto tail = ReadRange(path_.string(), sizes[0], sizes[1] + sizes[2]);
  EXPECT_EQ(tail.first, (std::vector<Timestamp>{101, 102}));
  EXPECT_EQ(tail.second, clean);

  // Length 0 and Open(path) read the whole file.
  auto whole = ReadRange(path_.string(), 0, 0);
  EXPECT_EQ(whole.first, (std::vector<Timestamp>{100, 101, 102}));
  EXPECT_EQ(whole.second, clean);
  MrtFileReader r;
  ASSERT_TRUE(r.Open(path_.string()).ok());
  size_t n = 0;
  while (r.Next().ok()) ++n;
  EXPECT_EQ(n, 3u);
}

TEST_F(MrtFileTest, RangeEndingInsideARecordReadsLikeATruncatedFile) {
  auto sizes = WriteThreeUpdates(path_.string());
  const std::vector<StatusCode> truncated{StatusCode::Corrupt,
                                          StatusCode::EndOfStream};

  // Ends inside the second record's body, then inside its header.
  auto body = ReadRange(path_.string(), 0, sizes[0] + sizes[1] - 5);
  EXPECT_EQ(body.first, std::vector<Timestamp>{100});
  EXPECT_EQ(body.second, truncated);

  auto header = ReadRange(path_.string(), 0, sizes[0] + 5);
  EXPECT_EQ(header.first, std::vector<Timestamp>{100});
  EXPECT_EQ(header.second, truncated);
}

TEST_F(MrtFileTest, FlushAndCloseReportWritesThatFail) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Bytes rec = EncodeBgp4mpUpdate(100, MakeUpdateMsg());

  MrtFileWriter flushed;
  ASSERT_TRUE(flushed.Open("/dev/full").ok());
  ASSERT_TRUE(flushed.Write(rec).ok());  // buffered, not yet written
  EXPECT_EQ(flushed.Flush().code(), StatusCode::IoError);

  MrtFileWriter closed;
  ASSERT_TRUE(closed.Open("/dev/full").ok());
  ASSERT_TRUE(closed.Write(rec).ok());
  EXPECT_EQ(closed.Close().code(), StatusCode::IoError);
}

TEST_F(MrtFileTest, ScanCountsCorruptTail) {
  MrtFileWriter w;
  ASSERT_TRUE(w.Open(path_.string()).ok());
  ASSERT_TRUE(w.Write(EncodeBgp4mpUpdate(100, MakeUpdateMsg())).ok());
  Bytes cut = EncodeBgp4mpUpdate(101, MakeUpdateMsg());
  cut.resize(cut.size() - 3);
  ASSERT_TRUE(w.WriteRaw(cut).ok());
  ASSERT_TRUE(w.Close().ok());
  auto scan = ScanFile(path_.string());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->messages.size(), 1u);
  EXPECT_EQ(scan->corrupt, 1u);
}

}  // namespace
}  // namespace bgps::mrt
