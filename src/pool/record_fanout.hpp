// Record-plane fan-out tier: decode once, publish to the mq log, serve
// N subscribers byte-identically.
//
// The paper's deployment (§6.1) runs ONE BGPStream process per
// collector that decodes the MRT firehose and republishes it through
// Kafka so that any number of downstream consumers — per-country
// monitors, per-AS monitors, research taps — read the same stream
// without re-decoding MRT N times. This header is that tier:
//
//   BgpStream ──> RecordPublisher ──> mq::Cluster topics
//                                       "records.<collector>"  (batches)
//                                       "records-watermark"    (progress)
//                                         │
//            RecordSubscriber(filter A) <─┼─> RecordSubscriber(filter B)
//
// RecordPublisher drains a stream exactly once, carrying each record's
// fully-extracted, UNFILTERED elems (the publisher stream must be
// configured with meta filters only). RecordSubscriber re-materializes
// a stream with BgpStream semantics — NextRecord()/Elems()/status() —
// evaluating the full filter language at fan-out, so a subscriber's
// output is byte-identical to a direct BgpStream run with the same
// filters: records are gated by FilterSet::MatchesRecord, elems by
// FilterElemsInPlace, exactly the two predicates the direct path uses.
//
// Ordering: records carry a publisher-global `seq`; a subscriber merges
// its collector topics by seq, emitting a head only once the publisher
// watermark passes it (so a quiet topic cannot be overtaken during a
// live tail). The watermark is published on every flush — and all open
// batches flush together, which is what makes it valid.
//
// Backpressure: subscribers hold retention pins at their cursor. With
// bounded topic retention, a stalled subscriber stops truncation, and
// the cluster parks the publisher's next publish into that topic until
// the pin moves — each topic holds at most its retention plus one
// batch, and publication resumes, losslessly, when the subscriber
// catches up or goes away.
#pragma once

#include <deque>
#include <optional>

#include "core/filter.hpp"
#include "core/stream.hpp"
#include "mq/serialize.hpp"

namespace bgps::pool {

class RecordPublisher {
 public:
  struct Options {
    // Required. Topics are auto-created with the cluster's default
    // retention; pre-create them for per-topic retention.
    mq::Cluster* cluster = nullptr;
    // Per-collector batch flush threshold, in records.
    size_t batch_records = 64;
    // Retention for the per-collector record topics (the high-watermark
    // knobs of the fan-out tier). nullopt = the cluster's default. The
    // watermark topic is always created unbounded — its messages are a
    // few bytes and subscribers recover from its truncation anyway by
    // re-seeking (watermarks are cumulative).
    std::optional<mq::RetentionOptions> topic_retention;
  };

  struct Stats {
    uint64_t records_published = 0;
    uint64_t elems_published = 0;
    uint64_t batches_published = 0;
    uint64_t watermarks_published = 0;
    uint64_t collectors_seen = 0;
  };

  explicit RecordPublisher(Options options) : options_(options) {}

  // Drains `stream` (already Start()ed) to completion, publishing every
  // record it emits. The stream must carry meta filters only — the
  // published elems are the record's full extraction, and it is the
  // subscribers that filter. Publishes a closed watermark on success
  // AND on error (subscribers must terminate either way); surfaces the
  // stream's abnormal status. Blocks while a pinned subscriber holds a
  // bounded record topic past its retention.
  Result<Stats> Run(core::BgpStream& stream);

 private:
  // Flushes every open batch, then the watermark covering them.
  void FlushAll(bool closed);
  void FlushBatch(mq::RecordBatchMessage& batch);

  Options options_;
  Stats stats_;
  uint64_t next_seq_ = 0;
  // Open (unflushed) batch per collector, insertion-ordered.
  std::vector<mq::RecordBatchMessage> open_;
};

class RecordSubscriber {
 public:
  struct Options {
    mq::Cluster* cluster = nullptr;  // required
    // Full bgpreader filter language, evaluated at fan-out. Collector
    // filters also restrict which topics are subscribed.
    core::FilterSet filters;
    // Replay start: skip records with seq < from_seq. The subscription
    // itself starts at each topic's retained low-watermark, so a
    // from_seq inside the retained window replays exactly the
    // publisher's suffix from that ordinal.
    uint64_t from_seq = 0;
    // Invoked when a live tail has no publishable data yet; should
    // block briefly or advance time, then return. Default sleeps 2ms.
    std::function<void()> poll_wait;
    // Safety valve: end the stream (status stays OK) after this many
    // consecutive empty waits (0 = tail forever).
    size_t max_consecutive_polls = 0;
    // Checked once per NextRecord call and once per poll round:
    // returning true ends the stream (status stays OK). Lets a server
    // shut down a live tail.
    std::function<bool()> cancel;
  };

  explicit RecordSubscriber(Options options);

  // Subscribes to the record topics present now (topics appearing later
  // are picked up during polling) and installs retention pins.
  Status Start();

  // Next record passing the record-level filters, in publisher order.
  // Emits what was already fetched before it polls the cluster again,
  // and decodes one record per topic at a time. nullopt = end of stream
  // (closed watermark drained, the poll limit, or an error — check
  // status(): Truncated when retention overran this subscriber's cursor
  // before it pinned/caught up, Corrupt or Unsupported for a malformed
  // batch, after the records that precede the bad one).
  std::optional<core::Record> NextRecord();

  // Elems of `record` passing the elem-level filters (move-out of the
  // prefetched elems, like the worker-extraction stream path).
  std::vector<core::Elem> Elems(core::Record& record) const;

  const Status& status() const { return status_; }
  // Largest seq emitted so far + 1 (0 before the first record).
  uint64_t next_seq() const { return next_seq_; }

 private:
  struct Topic {
    mq::Consumer consumer;
    mq::Cluster::Pin pin;
    // Fetched batches not yet opened, oldest first: shared handles,
    // neither decoded nor copied.
    std::deque<mq::MessagePtr> fetched;
    // The batch being read, and its next record once decoded.
    mq::RecordBatchReader reader;
    mq::PublishedRecord head;
    bool has_head = false;
  };

  // Subscribes to any "records.*" topic not yet tracked (subject to the
  // collector filter). New topics join at their retained low-watermark.
  void DiscoverTopics();
  // Queues ready batches per topic and reads the watermarks. Returns
  // true if any progress was made (new batches, watermark advance, or
  // stream close).
  bool PollOnce();
  // Decodes `t`'s next record at or past from_seq into its head unless
  // it has one, opening its next fetched batch as the current one ends.
  // Returns false, with status_ set, on a malformed batch.
  bool DecodeHead(Topic& t);

  Options options_;
  Status status_;
  std::vector<Topic> topics_;
  std::optional<mq::Consumer> watermark_;
  uint64_t watermark_seq_ = 0;
  bool closed_ = false;
  uint64_t next_seq_ = 0;
};

}  // namespace bgps::pool
