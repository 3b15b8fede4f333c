// (De)serialization of RT plugin output for the message queue
// (paper §6.2.2: "IO routines: diffs, (de)serialization, Kafka").
//
// Two message kinds flow through the per-collector "rt.<collector>"
// topics: full per-VP table snapshots (periodic, for consumer sync) and
// per-bin diff-cell batches. A lightweight meta record accompanies each
// bin on the "rt-meta" topic for the sync servers.
#pragma once

#include "core/record.hpp"
#include "corsaro/rt.hpp"
#include "mq/log.hpp"

namespace bgps::mq {

enum class RtMessageKind : uint8_t { Diff = 1, Snapshot = 2 };

struct RtDiffMessage {
  std::string collector;
  Timestamp bin_start = 0;
  std::vector<corsaro::DiffCell> diffs;
};

struct RtSnapshotMessage {
  std::string collector;
  Timestamp bin_start = 0;
  corsaro::VpKey vp;
  std::map<Prefix, corsaro::RtCell> table;
};

// Per-bin availability note consumed by sync servers (§6.2.3).
struct RtMetaMessage {
  std::string collector;
  Timestamp bin_start = 0;
  size_t diff_cells = 0;
};

Bytes EncodeDiffMessage(const RtDiffMessage& msg);
Result<RtDiffMessage> DecodeDiffMessage(const Bytes& data);

Bytes EncodeSnapshotMessage(const RtSnapshotMessage& msg);
Result<RtSnapshotMessage> DecodeSnapshotMessage(const Bytes& data);

Bytes EncodeMetaMessage(const RtMetaMessage& msg);
Result<RtMetaMessage> DecodeMetaMessage(const Bytes& data);

// Peeks the kind byte of an rt.<collector> topic message.
Result<RtMessageKind> PeekKind(const Bytes& data);

// Standard topic names.
std::string RtTopic(const std::string& collector);
inline constexpr const char* kRtMetaTopic = "rt-meta";

// ---------------------------------------------------------------------------
// Record-plane fan-out codec: serialized Record/Elem batches, the wire
// format between one decoding RecordPublisher and N RecordSubscribers
// (see pool/record_fanout.hpp). Versioned and round-trip exact: every
// header field and every elem field (AS-path segments included, not the
// text rendering) survives encode/decode bit-for-bit, which is what the
// fan-out identity pin rests on.
// ---------------------------------------------------------------------------

// Wire kinds of the record-plane topics, disjoint from RtMessageKind so
// a misrouted message fails its kind check instead of mis-decoding.
enum class RecordMessageKind : uint8_t { Batch = 3, Watermark = 4 };

inline constexpr uint8_t kRecordBatchVersion = 1;

// One published record: the provenance/annotation header of a
// core::Record plus its fully-extracted (unfiltered) elems in
// Record::prefetched_elems. The MRT body and peer index are *not*
// carried — extraction already happened, exactly once, at the
// publisher. `seq` is the publisher-global stream ordinal; subscribers
// re-merge their collector topics by it to reconstruct the publisher's
// total order.
struct PublishedRecord {
  uint64_t seq = 0;
  core::Record record;
};

struct RecordBatchMessage {
  std::string project;
  std::string collector;
  std::vector<PublishedRecord> records;
};

Bytes EncodeRecordBatch(const RecordBatchMessage& msg);
Result<RecordBatchMessage> DecodeRecordBatch(const Bytes& data);
// Arena-friendly decode: reuses `out`'s vectors (records and their elem
// buffers keep their capacity across batches). Built on
// RecordBatchReader, so it fails on exactly the inputs the reader does.
Status DecodeRecordBatchInto(const Bytes& data, RecordBatchMessage& out);

// Reads one encoded record batch a record at a time, so a subscriber
// holds the batch's shared payload and at most one decoded record of
// it. Open checks the kind, the version and the header; Next decodes
// the next record. A batch that is malformed part way through yields
// the records before the bad one, then Corrupt (a batch cut short
// included); a batch with a bad kind, version or header fails Open and
// yields none.
class RecordBatchReader {
 public:
  // Reads `message`'s payload, keeping the message alive until the
  // batch's end.
  Status Open(MessagePtr message);
  // Reads `data` in place; it must outlive the reads.
  Status Open(const Bytes& data);

  const InternedString& project() const { return project_; }
  const InternedString& collector() const { return collector_; }

  // Decodes the next record into `out`, reusing its elem buffer.
  // Returns false at the end of the batch, once it has checked that no
  // bytes trail the last record; an unopened reader is at its end.
  Result<bool> Next(PublishedRecord& out);

 private:
  Status ReadHeader();
  Status ReadRecord(PublishedRecord& out);

  MessagePtr message_;
  BufReader r_{nullptr, 0};
  InternedString project_;
  InternedString collector_;
  uint32_t remaining_ = 0;  // records the header announced, not yet read
};

// Publisher progress marker on the kRecordWatermarkTopic: every record
// with seq < `published_through` has been published to its collector
// topic, so subscribers may emit up to (exclusive) that ordinal without
// waiting on quiet topics. `closed` marks the end of the publisher run.
struct RecordWatermarkMessage {
  uint64_t published_through = 0;
  bool closed = false;
};

Bytes EncodeRecordWatermark(const RecordWatermarkMessage& msg);
Result<RecordWatermarkMessage> DecodeRecordWatermark(const Bytes& data);

// Record-plane topic names.
std::string RecordTopic(const std::string& collector);  // "records.<collector>"
inline constexpr const char* kRecordTopicPrefix = "records.";
inline constexpr const char* kRecordWatermarkTopic = "records-watermark";
// Periodic StreamPool::Stats() JSON snapshots (plain UTF-8 payloads).
inline constexpr const char* kStatsTopic = "stats";

// Glue: wires a RoutingTables plugin to a Cluster — diffs, periodic
// snapshots and meta all published to the right topics.
void PublishRtToCluster(corsaro::RoutingTables& rt, Cluster& cluster,
                        const std::string& collector);

}  // namespace bgps::mq
