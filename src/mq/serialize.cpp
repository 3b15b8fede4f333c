#include "mq/serialize.hpp"

#include <algorithm>

#include "bgp/attrs.hpp"

namespace bgps::mq {
namespace {

void WriteString(BufWriter& w, const std::string& s) {
  w.u16(uint16_t(s.size()));
  w.str(s);
}

Result<std::string> ReadString(BufReader& r) {
  BGPS_ASSIGN_OR_RETURN(uint16_t len, r.u16());
  return r.str(len);
}

void WritePrefix(BufWriter& w, const Prefix& p) {
  w.u8(p.family() == IpFamily::V4 ? 4 : 6);
  bgp::EncodeNlriPrefix(w, p);
}

Result<Prefix> ReadPrefix(BufReader& r) {
  BGPS_ASSIGN_OR_RETURN(uint8_t fam, r.u8());
  if (fam != 4 && fam != 6) return CorruptError("bad prefix family");
  return bgp::DecodeNlriPrefix(r, fam == 4 ? IpFamily::V4 : IpFamily::V6);
}

void WriteCell(BufWriter& w, const corsaro::RtCell& cell) {
  w.u8(cell.announced ? 1 : 0);
  w.u64(uint64_t(cell.last_modified));
  // AS path as a flat hop list (the sim never emits sets in RT context,
  // but sets survive via the bgpdump text form).
  WriteString(w, cell.as_path.ToString());
  w.u16(uint16_t(cell.communities.size()));
  for (auto c : cell.communities) w.u32(c.raw());
}

Result<corsaro::RtCell> ReadCell(BufReader& r) {
  corsaro::RtCell cell;
  BGPS_ASSIGN_OR_RETURN(uint8_t announced, r.u8());
  cell.announced = announced != 0;
  BGPS_ASSIGN_OR_RETURN(uint64_t ts, r.u64());
  cell.last_modified = Timestamp(ts);
  BGPS_ASSIGN_OR_RETURN(std::string path, ReadString(r));
  BGPS_ASSIGN_OR_RETURN(cell.as_path, bgp::AsPath::Parse(path));
  BGPS_ASSIGN_OR_RETURN(uint16_t ncomm, r.u16());
  for (int i = 0; i < ncomm; ++i) {
    BGPS_ASSIGN_OR_RETURN(uint32_t raw, r.u32());
    cell.communities.push_back(bgp::Community(raw));
  }
  return cell;
}

}  // namespace

std::string RtTopic(const std::string& collector) { return "rt." + collector; }

Bytes EncodeDiffMessage(const RtDiffMessage& msg) {
  BufWriter w;
  w.u8(uint8_t(RtMessageKind::Diff));
  WriteString(w, msg.collector);
  w.u64(uint64_t(msg.bin_start));
  w.u32(uint32_t(msg.diffs.size()));
  for (const auto& d : msg.diffs) {
    WriteString(w, d.vp.collector);
    w.u32(d.vp.peer);
    WritePrefix(w, d.prefix);
    WriteCell(w, d.cell);
  }
  return w.take();
}

Result<RtDiffMessage> DecodeDiffMessage(const Bytes& data) {
  BufReader r(data);
  BGPS_ASSIGN_OR_RETURN(uint8_t kind, r.u8());
  if (kind != uint8_t(RtMessageKind::Diff))
    return CorruptError("not a diff message");
  RtDiffMessage msg;
  BGPS_ASSIGN_OR_RETURN(msg.collector, ReadString(r));
  BGPS_ASSIGN_OR_RETURN(uint64_t ts, r.u64());
  msg.bin_start = Timestamp(ts);
  BGPS_ASSIGN_OR_RETURN(uint32_t n, r.u32());
  msg.diffs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    corsaro::DiffCell d;
    BGPS_ASSIGN_OR_RETURN(d.vp.collector, ReadString(r));
    BGPS_ASSIGN_OR_RETURN(d.vp.peer, r.u32());
    BGPS_ASSIGN_OR_RETURN(d.prefix, ReadPrefix(r));
    BGPS_ASSIGN_OR_RETURN(d.cell, ReadCell(r));
    msg.diffs.push_back(std::move(d));
  }
  return msg;
}

Bytes EncodeSnapshotMessage(const RtSnapshotMessage& msg) {
  BufWriter w;
  w.u8(uint8_t(RtMessageKind::Snapshot));
  WriteString(w, msg.collector);
  w.u64(uint64_t(msg.bin_start));
  WriteString(w, msg.vp.collector);
  w.u32(msg.vp.peer);
  w.u32(uint32_t(msg.table.size()));
  for (const auto& [prefix, cell] : msg.table) {
    WritePrefix(w, prefix);
    WriteCell(w, cell);
  }
  return w.take();
}

Result<RtSnapshotMessage> DecodeSnapshotMessage(const Bytes& data) {
  BufReader r(data);
  BGPS_ASSIGN_OR_RETURN(uint8_t kind, r.u8());
  if (kind != uint8_t(RtMessageKind::Snapshot))
    return CorruptError("not a snapshot message");
  RtSnapshotMessage msg;
  BGPS_ASSIGN_OR_RETURN(msg.collector, ReadString(r));
  BGPS_ASSIGN_OR_RETURN(uint64_t ts, r.u64());
  msg.bin_start = Timestamp(ts);
  BGPS_ASSIGN_OR_RETURN(msg.vp.collector, ReadString(r));
  BGPS_ASSIGN_OR_RETURN(msg.vp.peer, r.u32());
  BGPS_ASSIGN_OR_RETURN(uint32_t n, r.u32());
  for (uint32_t i = 0; i < n; ++i) {
    BGPS_ASSIGN_OR_RETURN(Prefix p, ReadPrefix(r));
    BGPS_ASSIGN_OR_RETURN(corsaro::RtCell cell, ReadCell(r));
    msg.table.emplace(p, std::move(cell));
  }
  return msg;
}

Bytes EncodeMetaMessage(const RtMetaMessage& msg) {
  BufWriter w;
  WriteString(w, msg.collector);
  w.u64(uint64_t(msg.bin_start));
  w.u32(uint32_t(msg.diff_cells));
  return w.take();
}

Result<RtMetaMessage> DecodeMetaMessage(const Bytes& data) {
  BufReader r(data);
  RtMetaMessage msg;
  BGPS_ASSIGN_OR_RETURN(msg.collector, ReadString(r));
  BGPS_ASSIGN_OR_RETURN(uint64_t ts, r.u64());
  msg.bin_start = Timestamp(ts);
  BGPS_ASSIGN_OR_RETURN(uint32_t n, r.u32());
  msg.diff_cells = n;
  return msg;
}

Result<RtMessageKind> PeekKind(const Bytes& data) {
  if (data.empty()) return CorruptError("empty message");
  uint8_t k = data[0];
  if (k != 1 && k != 2) return CorruptError("bad message kind");
  return RtMessageKind(k);
}

// --- Record-plane fan-out codec -------------------------------------------

namespace {

void WriteIp(BufWriter& w, const IpAddress& ip) {
  w.u8(ip.is_v4() ? 4 : 6);
  w.bytes(std::span<const uint8_t>(ip.bytes().data(), ip.is_v4() ? 4u : 16u));
}

Result<IpAddress> ReadIp(BufReader& r) {
  BGPS_ASSIGN_OR_RETURN(uint8_t fam, r.u8());
  if (fam == 4) {
    BGPS_ASSIGN_OR_RETURN(auto raw, r.view(4));
    return IpAddress::V4(raw[0], raw[1], raw[2], raw[3]);
  }
  if (fam == 6) {
    BGPS_ASSIGN_OR_RETURN(auto raw, r.view(16));
    std::array<uint8_t, 16> bytes;
    std::copy(raw.begin(), raw.end(), bytes.begin());
    return IpAddress::V6(bytes);
  }
  return CorruptError("bad address family");
}

// AS path serialized segment-exact (type + member list per segment):
// the text form would merge adjacent sequences, and round-trip
// exactness is part of the codec's contract.
void WriteAsPath(BufWriter& w, const bgp::AsPath& path) {
  w.u8(uint8_t(path.segments().size()));
  for (const auto& seg : path.segments()) {
    w.u8(uint8_t(seg.type));
    w.u16(uint16_t(seg.asns.size()));
    for (bgp::Asn asn : seg.asns) w.u32(asn);
  }
}

Result<bgp::AsPath> ReadAsPath(BufReader& r) {
  bgp::AsPath path;
  BGPS_ASSIGN_OR_RETURN(uint8_t nseg, r.u8());
  for (int s = 0; s < nseg; ++s) {
    bgp::AsPathSegment seg;
    BGPS_ASSIGN_OR_RETURN(uint8_t type, r.u8());
    if (type != uint8_t(bgp::SegmentType::AsSet) &&
        type != uint8_t(bgp::SegmentType::AsSequence)) {
      return CorruptError("bad AS-path segment type");
    }
    seg.type = bgp::SegmentType(type);
    BGPS_ASSIGN_OR_RETURN(uint16_t nasn, r.u16());
    for (int i = 0; i < nasn; ++i) {
      BGPS_ASSIGN_OR_RETURN(uint32_t asn, r.u32());
      seg.asns.push_back(asn);
    }
    path.append_segment(std::move(seg));
  }
  return path;
}

void WriteElem(BufWriter& w, const core::Elem& e) {
  w.u8(uint8_t(e.type));
  w.u64(uint64_t(e.time));
  WriteIp(w, e.peer_address);
  w.u32(e.peer_asn);
  WriteIp(w, e.prefix.address());
  w.u8(uint8_t(e.prefix.length()));
  WriteIp(w, e.next_hop);
  WriteAsPath(w, e.as_path);
  w.u16(uint16_t(e.communities.size()));
  for (auto c : e.communities) w.u32(c.raw());
  w.u16(uint16_t(e.old_state));
  w.u16(uint16_t(e.new_state));
}

Status ReadElemInto(BufReader& r, core::Elem& e) {
  BGPS_ASSIGN_OR_RETURN(uint8_t type, r.u8());
  e.type = core::ElemType(type);
  BGPS_ASSIGN_OR_RETURN(uint64_t time, r.u64());
  e.time = Timestamp(time);
  BGPS_ASSIGN_OR_RETURN(e.peer_address, ReadIp(r));
  BGPS_ASSIGN_OR_RETURN(e.peer_asn, r.u32());
  BGPS_ASSIGN_OR_RETURN(IpAddress pfx_addr, ReadIp(r));
  BGPS_ASSIGN_OR_RETURN(uint8_t pfx_len, r.u8());
  e.prefix = Prefix(pfx_addr, pfx_len);
  BGPS_ASSIGN_OR_RETURN(e.next_hop, ReadIp(r));
  BGPS_ASSIGN_OR_RETURN(e.as_path, ReadAsPath(r));
  BGPS_ASSIGN_OR_RETURN(uint16_t ncomm, r.u16());
  e.communities.clear();
  for (int i = 0; i < ncomm; ++i) {
    BGPS_ASSIGN_OR_RETURN(uint32_t raw, r.u32());
    e.communities.push_back(bgp::Community(raw));
  }
  BGPS_ASSIGN_OR_RETURN(uint16_t old_state, r.u16());
  e.old_state = bgp::FsmState(old_state);
  BGPS_ASSIGN_OR_RETURN(uint16_t new_state, r.u16());
  e.new_state = bgp::FsmState(new_state);
  return OkStatus();
}

// Wire size of the smallest elem WriteElem emits: v4 addresses, an
// empty AS path and no communities.
constexpr size_t kMinElemBytes = 36;

// A batch cut short reads past the end of its payload: that is a
// corrupt batch, not a caller's range error.
Status CutShortIsCorrupt(Status st) {
  if (st.code() != StatusCode::OutOfRange) return st;
  return CorruptError("record batch cut short: " + st.message());
}

}  // namespace

std::string RecordTopic(const std::string& collector) {
  return kRecordTopicPrefix + collector;
}

Bytes EncodeRecordBatch(const RecordBatchMessage& msg) {
  BufWriter w;
  w.u8(uint8_t(RecordMessageKind::Batch));
  w.u8(kRecordBatchVersion);
  WriteString(w, msg.project);
  WriteString(w, msg.collector);
  w.u32(uint32_t(msg.records.size()));
  for (const auto& pr : msg.records) {
    const core::Record& rec = pr.record;
    w.u64(pr.seq);
    w.u8(uint8_t(rec.dump_type));
    w.u64(uint64_t(rec.dump_time));
    w.u8(uint8_t(rec.status));
    w.u8(uint8_t(rec.position));
    w.u64(uint64_t(rec.timestamp));
    const auto& elems = rec.prefetched_elems;
    w.u32(elems ? uint32_t(elems->size()) : 0u);
    if (elems) {
      for (const auto& e : *elems) WriteElem(w, e);
    }
  }
  return w.take();
}

Status RecordBatchReader::Open(MessagePtr message) {
  BGPS_RETURN_IF_ERROR(Open(message->value));
  message_ = std::move(message);
  return OkStatus();
}

Status RecordBatchReader::Open(const Bytes& data) {
  message_.reset();
  remaining_ = 0;
  r_ = BufReader(data);
  Status st = CutShortIsCorrupt(ReadHeader());
  // A failed Open leaves no view of a payload it does not keep alive.
  if (!st.ok()) r_ = BufReader(nullptr, 0);
  return st;
}

Status RecordBatchReader::ReadHeader() {
  BGPS_ASSIGN_OR_RETURN(uint8_t kind, r_.u8());
  if (kind != uint8_t(RecordMessageKind::Batch))
    return CorruptError("not a record batch");
  BGPS_ASSIGN_OR_RETURN(uint8_t version, r_.u8());
  if (version != kRecordBatchVersion)
    return UnsupportedError("record batch version " + std::to_string(version));
  BGPS_ASSIGN_OR_RETURN(std::string project, ReadString(r_));
  BGPS_ASSIGN_OR_RETURN(std::string collector, ReadString(r_));
  project_ = InternedString(project);
  collector_ = InternedString(collector);
  BGPS_ASSIGN_OR_RETURN(remaining_, r_.u32());
  return OkStatus();
}

Result<bool> RecordBatchReader::Next(PublishedRecord& out) {
  if (remaining_ == 0) {
    const bool trailing = !r_.empty();
    message_.reset();
    r_ = BufReader(nullptr, 0);
    if (trailing) return CorruptError("trailing bytes after record batch");
    return false;
  }
  --remaining_;
  BGPS_RETURN_IF_ERROR(CutShortIsCorrupt(ReadRecord(out)));
  return true;
}

Status RecordBatchReader::ReadRecord(PublishedRecord& out) {
  core::Record& rec = out.record;
  BGPS_ASSIGN_OR_RETURN(out.seq, r_.u64());
  rec.project = project_;
  rec.collector = collector_;
  BGPS_ASSIGN_OR_RETURN(uint8_t dump_type, r_.u8());
  rec.dump_type = core::DumpType(dump_type);
  BGPS_ASSIGN_OR_RETURN(uint64_t dump_time, r_.u64());
  rec.dump_time = Timestamp(dump_time);
  BGPS_ASSIGN_OR_RETURN(uint8_t status, r_.u8());
  rec.status = core::RecordStatus(status);
  BGPS_ASSIGN_OR_RETURN(uint8_t position, r_.u8());
  rec.position = core::DumpPosition(position);
  BGPS_ASSIGN_OR_RETURN(uint64_t ts, r_.u64());
  rec.timestamp = Timestamp(ts);
  BGPS_ASSIGN_OR_RETURN(uint32_t nelems, r_.u32());
  // Checked before the buffer grows: a corrupt count must not size it.
  if (nelems > r_.remaining() / kMinElemBytes)
    return CorruptError("elem count exceeds the record batch");
  if (!rec.prefetched_elems) rec.prefetched_elems.emplace();
  rec.prefetched_elems->resize(nelems);
  for (auto& e : *rec.prefetched_elems)
    BGPS_RETURN_IF_ERROR(ReadElemInto(r_, e));
  return OkStatus();
}

Status DecodeRecordBatchInto(const Bytes& data, RecordBatchMessage& out) {
  RecordBatchReader reader;
  BGPS_RETURN_IF_ERROR(reader.Open(data));
  out.project = reader.project();
  out.collector = reader.collector();
  // Grows with the records read, never with the header's count.
  size_t n = 0;
  for (;;) {
    if (n == out.records.size()) out.records.emplace_back();
    BGPS_ASSIGN_OR_RETURN(bool more, reader.Next(out.records[n]));
    if (!more) break;
    ++n;
  }
  out.records.resize(n);
  return OkStatus();
}

Result<RecordBatchMessage> DecodeRecordBatch(const Bytes& data) {
  RecordBatchMessage msg;
  BGPS_RETURN_IF_ERROR(DecodeRecordBatchInto(data, msg));
  return msg;
}

Bytes EncodeRecordWatermark(const RecordWatermarkMessage& msg) {
  BufWriter w;
  w.u8(uint8_t(RecordMessageKind::Watermark));
  w.u8(kRecordBatchVersion);
  w.u64(msg.published_through);
  w.u8(msg.closed ? 1 : 0);
  return w.take();
}

Result<RecordWatermarkMessage> DecodeRecordWatermark(const Bytes& data) {
  BufReader r(data);
  BGPS_ASSIGN_OR_RETURN(uint8_t kind, r.u8());
  if (kind != uint8_t(RecordMessageKind::Watermark))
    return CorruptError("not a record watermark");
  BGPS_ASSIGN_OR_RETURN(uint8_t version, r.u8());
  if (version != kRecordBatchVersion)
    return UnsupportedError("watermark version " + std::to_string(version));
  RecordWatermarkMessage msg;
  BGPS_ASSIGN_OR_RETURN(msg.published_through, r.u64());
  BGPS_ASSIGN_OR_RETURN(uint8_t closed, r.u8());
  msg.closed = closed != 0;
  return msg;
}

void PublishRtToCluster(corsaro::RoutingTables& rt, Cluster& cluster,
                        const std::string& collector) {
  rt.set_diff_callback([&cluster, collector](
                           Timestamp bin_start,
                           const std::vector<corsaro::DiffCell>& diffs) {
    RtDiffMessage msg;
    msg.collector = collector;
    msg.bin_start = bin_start;
    msg.diffs = diffs;
    Message m;
    m.key = collector;
    m.timestamp = bin_start;
    m.value = EncodeDiffMessage(msg);
    cluster.Publish(RtTopic(collector), 0, std::move(m));

    RtMetaMessage meta{collector, bin_start, diffs.size()};
    Message mm;
    mm.key = collector;
    mm.timestamp = bin_start;
    mm.value = EncodeMetaMessage(meta);
    cluster.Publish(kRtMetaTopic, 0, std::move(mm));
  });
  rt.set_snapshot_callback(
      [&cluster, collector](Timestamp bin_start, const corsaro::VpKey& vp,
                            const std::map<Prefix, corsaro::RtCell>& table) {
        RtSnapshotMessage msg;
        msg.collector = collector;
        msg.bin_start = bin_start;
        msg.vp = vp;
        msg.table = table;
        Message m;
        m.key = collector;
        m.timestamp = bin_start;
        m.value = EncodeSnapshotMessage(msg);
        cluster.Publish(RtTopic(collector), 0, std::move(m));
      });
}

}  // namespace bgps::mq
