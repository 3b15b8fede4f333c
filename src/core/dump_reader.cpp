#include "core/dump_reader.hpp"

namespace bgps::core {

DumpReader::DumpReader(broker::DumpFileMeta meta) : meta_(std::move(meta)) {
  // Intern once per dump: every record then stamps provenance with a
  // pointer copy instead of a per-record string copy.
  project_ = meta_.project;
  collector_ = meta_.collector;
  Status st = reader_.Open(meta_.path);
  if (!st.ok()) open_failed_ = true;
}

Record DumpReader::MakeRecord() const {
  Record rec;
  rec.project = project_;
  rec.collector = collector_;
  rec.dump_type = meta_.type;
  rec.dump_time = meta_.start;
  rec.timestamp = meta_.start;
  return rec;
}

std::optional<Record> DumpReader::Produce() {
  if (open_failed_) {
    if (emitted_open_failure_) return std::nullopt;
    emitted_open_failure_ = true;
    Record rec = MakeRecord();
    rec.status = RecordStatus::CorruptedDump;
    return rec;
  }
  auto raw = reader_.Next();
  if (!raw.ok()) {
    if (raw.status().code() == StatusCode::EndOfStream) return std::nullopt;
    // Framing broke: emit one CorruptedDump record; reader will then report
    // EndOfStream (no resync possible in MRT).
    Record rec = MakeRecord();
    rec.status = RecordStatus::CorruptedDump;
    return rec;
  }

  Record rec = MakeRecord();
  rec.timestamp = raw->timestamp;
  auto msg = mrt::DecodeRecord(*raw, &decode_ctx_);
  if (!msg.ok()) {
    rec.status = msg.status().code() == StatusCode::Unsupported
                     ? RecordStatus::Unsupported
                     : RecordStatus::CorruptedRecord;
    return rec;
  }
  rec.msg = std::move(*msg);
  if (rec.msg.is_peer_index()) {
    peer_index_ = std::make_shared<mrt::PeerIndexTable>(
        std::get<mrt::PeerIndexTable>(rec.msg.body));
  }
  rec.peer_index = peer_index_;
  return rec;
}

std::optional<Timestamp> DumpReader::PeekTimestamp() {
  if (done_) return std::nullopt;
  if (!lookahead_) {
    lookahead_ = Produce();
    if (!lookahead_) {
      done_ = true;
      return std::nullopt;
    }
  }
  return lookahead_->timestamp;
}

std::optional<Record> DumpReader::Next() {
  if (done_) return std::nullopt;
  if (!lookahead_) {
    lookahead_ = Produce();
    if (!lookahead_) {
      done_ = true;
      return std::nullopt;
    }
  }
  Record out = std::move(*lookahead_);
  lookahead_ = Produce();
  if (!started_) {
    out.position = DumpPosition::Start;
    started_ = true;
  }
  if (!lookahead_) {
    done_ = true;
    // A single-record dump is both Start and End; End wins so users can
    // still collate RIB dumps (the RT plugin keys on End to commit).
    out.position = DumpPosition::End;
  }
  return out;
}

}  // namespace bgps::core
