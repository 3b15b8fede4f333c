// Round-trip exactness of the record-plane fan-out codec
// (mq/serialize.hpp RecordBatchMessage / RecordWatermarkMessage): the
// fan-out identity pin rests on every header and elem field surviving
// encode/decode bit-for-bit, so this suite checks it two ways — a
// seeded synthetic property test sweeping the value space (v4/v6,
// AS_SET/AS_SEQUENCE paths, communities, FSM transitions), and real
// generated-corpus records under both ASN encodings.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <random>

#include "broker/archive.hpp"
#include "core/stream.hpp"
#include "mq/serialize.hpp"
#include "sim/corpus.hpp"

namespace bgps::mq {
namespace {

using broker::DumpFileMeta;

void ExpectElemEqual(const core::Elem& a, const core::Elem& b) {
  EXPECT_EQ(int(a.type), int(b.type));
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.peer_address, b.peer_address);
  EXPECT_EQ(a.peer_asn, b.peer_asn);
  EXPECT_EQ(a.prefix, b.prefix);
  EXPECT_EQ(a.next_hop, b.next_hop);
  EXPECT_EQ(a.as_path, b.as_path);  // segment-exact, not the text form
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (size_t i = 0; i < a.communities.size(); ++i)
    EXPECT_EQ(a.communities[i].raw(), b.communities[i].raw());
  EXPECT_EQ(int(a.old_state), int(b.old_state));
  EXPECT_EQ(int(a.new_state), int(b.new_state));
}

void ExpectBatchRoundTrip(const RecordBatchMessage& msg) {
  Bytes wire = EncodeRecordBatch(msg);
  auto decoded = DecodeRecordBatch(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->project, msg.project);
  EXPECT_EQ(decoded->collector, msg.collector);
  ASSERT_EQ(decoded->records.size(), msg.records.size());
  for (size_t i = 0; i < msg.records.size(); ++i) {
    const auto& in = msg.records[i];
    const auto& out = decoded->records[i];
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.record.project.str(), msg.project);
    EXPECT_EQ(out.record.collector.str(), msg.collector);
    EXPECT_EQ(int(out.record.dump_type), int(in.record.dump_type));
    EXPECT_EQ(out.record.dump_time, in.record.dump_time);
    EXPECT_EQ(int(out.record.status), int(in.record.status));
    EXPECT_EQ(int(out.record.position), int(in.record.position));
    EXPECT_EQ(out.record.timestamp, in.record.timestamp);
    ASSERT_TRUE(out.record.prefetched_elems.has_value());
    ASSERT_TRUE(in.record.prefetched_elems.has_value());
    ASSERT_EQ(out.record.prefetched_elems->size(),
              in.record.prefetched_elems->size());
    for (size_t e = 0; e < in.record.prefetched_elems->size(); ++e)
      ExpectElemEqual((*in.record.prefetched_elems)[e],
                      (*out.record.prefetched_elems)[e]);
  }
}

IpAddress RandomIp(std::mt19937& rng) {
  if (rng() % 2 == 0) {
    return IpAddress::V4(uint8_t(rng()), uint8_t(rng()), uint8_t(rng()),
                         uint8_t(rng()));
  }
  std::array<uint8_t, 16> bytes;
  for (auto& b : bytes) b = uint8_t(rng());
  return IpAddress::V6(bytes);
}

core::Elem RandomElem(std::mt19937& rng) {
  core::Elem e;
  e.type = core::ElemType(rng() % 4);
  e.time = Timestamp(1458000000 + rng() % 100000);
  e.peer_address = RandomIp(rng);
  e.peer_asn = uint32_t(rng());
  if (e.has_prefix()) {
    IpAddress addr = RandomIp(rng);
    e.prefix = Prefix(addr, int(rng() % size_t(addr.width() + 1)));
    e.next_hop = RandomIp(rng);
    // 1–3 segments, mixing sets and sequences, 4-byte ASNs included.
    size_t nseg = 1 + rng() % 3;
    for (size_t s = 0; s < nseg; ++s) {
      bgp::AsPathSegment seg;
      seg.type = rng() % 4 == 0 ? bgp::SegmentType::AsSet
                                : bgp::SegmentType::AsSequence;
      size_t nasn = 1 + rng() % 5;
      for (size_t a = 0; a < nasn; ++a) seg.asns.push_back(uint32_t(rng()));
      e.as_path.append_segment(std::move(seg));
    }
    size_t ncomm = rng() % 4;
    for (size_t c = 0; c < ncomm; ++c)
      e.communities.push_back(bgp::Community(uint32_t(rng())));
  } else {
    e.old_state = bgp::FsmState(rng() % 7);
    e.new_state = bgp::FsmState(rng() % 7);
  }
  return e;
}

TEST(RecordCodec, SyntheticPropertyRoundTrip) {
  std::mt19937 rng(20160331);  // seeded: failures replay exactly
  for (int round = 0; round < 50; ++round) {
    RecordBatchMessage msg;
    msg.project = round % 2 ? "routeviews" : "ris";
    msg.collector = "rrc" + std::to_string(round % 5);
    size_t nrec = rng() % 8;
    for (size_t i = 0; i < nrec; ++i) {
      PublishedRecord pr;
      pr.seq = uint64_t(rng()) << 20 | i;
      pr.record.project = msg.project;
      pr.record.collector = msg.collector;
      pr.record.dump_type = core::DumpType(rng() % 2);
      pr.record.dump_time = Timestamp(1458000000 + rng() % 7200);
      pr.record.status = core::RecordStatus(rng() % 3);
      pr.record.position = core::DumpPosition(rng() % 3);
      pr.record.timestamp = Timestamp(1458000000 + rng() % 7200);
      pr.record.prefetched_elems.emplace();
      size_t nelem = rng() % 6;
      for (size_t e = 0; e < nelem; ++e)
        pr.record.prefetched_elems->push_back(RandomElem(rng));
      msg.records.push_back(std::move(pr));
    }
    ExpectBatchRoundTrip(msg);
  }
}

TEST(RecordCodec, WatermarkRoundTripAndKindChecks) {
  RecordWatermarkMessage wm{123456789012345ull, false};
  auto decoded = DecodeRecordWatermark(EncodeRecordWatermark(wm));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->published_through, 123456789012345ull);
  EXPECT_FALSE(decoded->closed);
  wm.closed = true;
  EXPECT_TRUE(DecodeRecordWatermark(EncodeRecordWatermark(wm))->closed);

  // Kind bytes are disjoint: misrouted messages fail their kind check.
  Bytes batch_wire = EncodeRecordBatch({});
  EXPECT_FALSE(DecodeRecordWatermark(batch_wire).ok());
  EXPECT_FALSE(DecodeRecordBatch(EncodeRecordWatermark(wm)).ok());
  EXPECT_FALSE(DecodeRecordBatch({}).ok());
  // Truncated wire surfaces as an error, not UB.
  batch_wire.resize(batch_wire.size() / 2);
  EXPECT_FALSE(DecodeRecordBatch(batch_wire).ok());
}

TEST(RecordCodec, DecodeIntoReusesCapacity) {
  RecordBatchMessage msg;
  msg.project = "routeviews";
  msg.collector = "rv2";
  std::mt19937 rng(7);
  for (size_t i = 0; i < 4; ++i) {
    PublishedRecord pr;
    pr.seq = i;
    pr.record.prefetched_elems.emplace();
    pr.record.prefetched_elems->push_back(RandomElem(rng));
    msg.records.push_back(std::move(pr));
  }
  Bytes wire = EncodeRecordBatch(msg);
  RecordBatchMessage out;
  ASSERT_TRUE(DecodeRecordBatchInto(wire, out).ok());
  ASSERT_EQ(out.records.size(), 4u);
  // A second decode into the same message must replace, not append.
  ASSERT_TRUE(DecodeRecordBatchInto(wire, out).ok());
  EXPECT_EQ(out.records.size(), 4u);
  EXPECT_EQ(out.records[3].record.prefetched_elems->size(), 1u);
}

// Reads `wire` with a RecordBatchReader until it stops: the records it
// yielded, and the status it stopped with.
struct ReaderRun {
  size_t records = 0;
  Status status;
};

ReaderRun ReadAll(const Bytes& wire) {
  ReaderRun run;
  RecordBatchReader reader;
  run.status = reader.Open(wire);
  PublishedRecord pr;
  while (run.status.ok()) {
    auto more = reader.Next(pr);
    if (!more.ok()) {
      run.status = more.status();
    } else if (!*more) {
      break;
    } else {
      ++run.records;
    }
  }
  return run;
}

RecordBatchMessage SyntheticBatch(std::mt19937& rng, size_t records) {
  RecordBatchMessage msg;
  msg.project = "routeviews";
  msg.collector = "route-views.linx";
  for (size_t i = 0; i < records; ++i) {
    PublishedRecord pr;
    pr.seq = 100 + i;
    pr.record.timestamp = Timestamp(1458000000 + i);
    pr.record.prefetched_elems.emplace();
    for (size_t e = 0; e < i % 4; ++e)
      pr.record.prefetched_elems->push_back(RandomElem(rng));
    msg.records.push_back(std::move(pr));
  }
  return msg;
}

// A batch cut at any byte fails both decoders with Corrupt, and the
// reader first yields exactly the records that lie wholly before the
// cut.
TEST(RecordCodec, TruncatedBatchYieldsTheRecordsBeforeTheCut) {
  std::mt19937 rng(11);
  RecordBatchMessage msg = SyntheticBatch(rng, 6);
  const Bytes wire = EncodeRecordBatch(msg);
  // ends[k] = size of the header plus the first k records.
  std::vector<size_t> ends;
  for (size_t k = 0; k <= msg.records.size(); ++k) {
    RecordBatchMessage prefix = msg;
    prefix.records.resize(k);
    ends.push_back(EncodeRecordBatch(prefix).size());
  }
  ASSERT_EQ(ends.back(), wire.size());
  RecordBatchMessage out;
  for (size_t len = 0; len < wire.size(); ++len) {
    const Bytes cut(wire.begin(), wire.begin() + ptrdiff_t(len));
    ReaderRun run = ReadAll(cut);
    EXPECT_EQ(run.status.code(), StatusCode::Corrupt) << "cut at " << len;
    EXPECT_EQ(DecodeRecordBatchInto(cut, out).code(), StatusCode::Corrupt)
        << "cut at " << len;
    size_t whole = 0;
    while (whole + 1 < ends.size() && ends[whole + 1] <= len) ++whole;
    EXPECT_EQ(run.records, whole) << "cut at " << len;
  }
}

// Seeded byte flips anywhere in a batch: the reader and
// DecodeRecordBatchInto accept or reject exactly the same inputs, and
// agree on the record count when they accept. Flips of a count field
// must not size a buffer (run under ASan+UBSan in CI).
TEST(RecordCodec, ByteFlipsFailBothDecodersAlike) {
  std::mt19937 rng(20160331);
  const Bytes wire = EncodeRecordBatch(SyntheticBatch(rng, 8));
  RecordBatchMessage out;
  size_t rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    Bytes flipped = wire;
    const size_t flips = 1 + rng() % 3;
    for (size_t f = 0; f < flips; ++f)
      flipped[rng() % flipped.size()] ^= uint8_t(1 + rng() % 255);
    ReaderRun run = ReadAll(flipped);
    Status st = DecodeRecordBatchInto(flipped, out);
    ASSERT_EQ(run.status.ok(), st.ok()) << "round " << round;
    if (st.ok()) {
      EXPECT_EQ(run.records, out.records.size()) << "round " << round;
    } else {
      EXPECT_EQ(run.status.code(), st.code()) << "round " << round;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

// Real records: a small generated corpus per ASN encoding, streamed
// with full extraction and re-batched through the codec. The corpus
// scenario mixes RIBs, updates, communities (rtbh windows) and session
// resets (FSM state changes), so the wire format sees live shapes, not
// just synthetic ones.
class CodecCorpusTest : public ::testing::TestWithParam<bgp::AsnEncoding> {};

class VectorDataInterface : public core::DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  core::DataBatch NextBatch(const core::FilterSet&) override {
    core::DataBatch batch;
    if (!served_) {
      batch.files = files_;
      served_ = true;
    } else {
      batch.end_of_stream = true;
    }
    return batch;
  }

 private:
  std::vector<DumpFileMeta> files_;
  bool served_ = false;
};

TEST_P(CodecCorpusTest, GeneratedCorpusRecordsRoundTrip) {
  namespace fs = std::filesystem;
  const bool four_byte = GetParam() == bgp::AsnEncoding::FourByte;
  std::string root =
      (fs::temp_directory_path() /
       ("bgps_codec_corpus_" + std::to_string(::getpid()) +
        (four_byte ? "_4b" : "_2b")))
          .string();

  sim::CorpusOptions options;
  options.scenario = "mixed";
  options.duration = 1200;
  options.flaps_per_hour = 600;
  options.asn_encoding = GetParam();
  options.seed = 20160331;
  ASSERT_TRUE(sim::GenerateCorpus(options, root).ok());
  broker::ArchiveIndex index(root);
  ASSERT_TRUE(index.Rescan().ok());

  core::BgpStream stream;
  VectorDataInterface di(index.files());
  stream.SetInterval(0, 4102444800);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());

  size_t records = 0, elems = 0;
  RecordBatchMessage batch;
  while (auto rec = stream.NextRecord()) {
    rec->prefetched_elems = stream.Elems(*rec);
    elems += rec->prefetched_elems->size();
    if (batch.records.empty()) {
      batch.project = rec->project.str();
      batch.collector = rec->collector.str();
    }
    if (batch.collector != rec->collector.str() ||
        batch.records.size() >= 32) {
      ExpectBatchRoundTrip(batch);
      batch.records.clear();
      batch.project = rec->project.str();
      batch.collector = rec->collector.str();
    }
    PublishedRecord pr;
    pr.seq = records++;
    pr.record = std::move(*rec);
    batch.records.push_back(std::move(pr));
  }
  ExpectBatchRoundTrip(batch);
  ASSERT_TRUE(stream.status().ok());
  EXPECT_GT(records, 100u);
  EXPECT_GT(elems, records);  // RIB records fan out to per-VP elems

  std::error_code ec;
  fs::remove_all(root, ec);
}

INSTANTIATE_TEST_SUITE_P(AsnEncodings, CodecCorpusTest,
                         ::testing::Values(bgp::AsnEncoding::TwoByte,
                                           bgp::AsnEncoding::FourByte),
                         [](const auto& info) {
                           return info.param == bgp::AsnEncoding::FourByte
                                      ? "FourByte"
                                      : "TwoByte";
                         });

}  // namespace
}  // namespace bgps::mq
