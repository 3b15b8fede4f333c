#include "pool/record_fanout.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace bgps::pool {

// --- RecordPublisher -------------------------------------------------------

void RecordPublisher::FlushBatch(mq::RecordBatchMessage& batch) {
  if (batch.records.empty()) return;
  mq::Message m;
  m.key = batch.collector;
  m.timestamp = batch.records.back().record.timestamp;
  m.value = mq::EncodeRecordBatch(batch);
  // Waits while a lagging subscriber pins a bounded topic at its bound.
  options_.cluster->Publish(mq::RecordTopic(batch.collector), 0, std::move(m));
  stats_.records_published += batch.records.size();
  ++stats_.batches_published;
  batch.records.clear();
}

void RecordPublisher::FlushAll(bool closed) {
  // Every open batch flushes before the watermark does — that ordering
  // is what makes `published_through = next_seq_` true when it lands.
  for (auto& batch : open_) FlushBatch(batch);
  mq::RecordWatermarkMessage wm;
  wm.published_through = next_seq_;
  wm.closed = closed;
  mq::Message m;
  m.value = mq::EncodeRecordWatermark(wm);
  options_.cluster->Publish(mq::kRecordWatermarkTopic, 0, std::move(m));
  ++stats_.watermarks_published;
}

Result<RecordPublisher::Stats> RecordPublisher::Run(core::BgpStream& stream) {
  if (!options_.cluster)
    return InvalidArgument("RecordPublisher requires a cluster");
  // Progress markers must never truncate away under a bounded cluster
  // default — pin the watermark topic to unbounded retention up front.
  options_.cluster->CreateTopic(mq::kRecordWatermarkTopic, 1,
                                mq::RetentionOptions{});
  const size_t flush_at = std::max<size_t>(1, options_.batch_records);
  while (auto rec = stream.NextRecord()) {
    // The one and only extraction of this record's elems, whole
    // pipeline wide. The publisher stream carries no elem filters, so
    // this is the full decomposition.
    rec->prefetched_elems = stream.Elems(*rec);
    const std::string& collector = rec->collector.str();
    mq::RecordBatchMessage* batch = nullptr;
    for (auto& b : open_) {
      if (b.collector == collector) {
        batch = &b;
        break;
      }
    }
    if (!batch) {
      if (options_.topic_retention) {
        options_.cluster->CreateTopic(mq::RecordTopic(collector), 1,
                                      *options_.topic_retention);
      }
      open_.emplace_back();
      batch = &open_.back();
      batch->project = rec->project.str();
      batch->collector = collector;
      ++stats_.collectors_seen;
    }
    mq::PublishedRecord pr;
    pr.seq = next_seq_++;
    stats_.elems_published += rec->prefetched_elems->size();
    pr.record = std::move(*rec);
    batch->records.push_back(std::move(pr));
    if (batch->records.size() >= flush_at) FlushAll(false);
  }
  FlushAll(true);
  if (!stream.status().ok()) return stream.status();
  return stats_;
}

// --- RecordSubscriber ------------------------------------------------------

RecordSubscriber::RecordSubscriber(Options options)
    : options_(std::move(options)) {}

Status RecordSubscriber::Start() {
  if (!options_.cluster)
    return InvalidArgument("RecordSubscriber requires a cluster");
  watermark_.emplace(options_.cluster, mq::kRecordWatermarkTopic);
  DiscoverTopics();
  return OkStatus();
}

void RecordSubscriber::DiscoverTopics() {
  const size_t prefix_len = std::strlen(mq::kRecordTopicPrefix);
  for (const auto& name : options_.cluster->topics()) {
    if (name.rfind(mq::kRecordTopicPrefix, 0) != 0) continue;
    const std::string collector = name.substr(prefix_len);
    const auto& want = options_.filters.collectors;
    if (!want.empty() &&
        std::find(want.begin(), want.end(), collector) == want.end())
      continue;
    bool known = false;
    for (const auto& t : topics_) {
      if (t.consumer.topic() == name) {
        known = true;
        break;
      }
    }
    if (known) continue;
    Topic t{mq::Consumer(options_.cluster, name),
            // Pin first (it clamps to the retained low-watermark and
            // freezes it), then park the cursor on the pinned offset —
            // truncation cannot race past us in between.
            options_.cluster->CreatePin(name, 0, 0), {}, {}, {}, false};
    t.consumer.SeekToFirst();
    topics_.push_back(std::move(t));
  }
}

bool RecordSubscriber::PollOnce() {
  bool progress = false;
  // Watermarks are cumulative, so if retention somehow overran the
  // cursor (the publisher creates the topic unbounded, but an operator
  // may pre-create it tighter), skipping to the retained suffix loses
  // nothing.
  auto wm_msgs = watermark_->Poll();
  if (!wm_msgs.ok()) {
    watermark_->SeekToFirst();
    wm_msgs = watermark_->Poll();
  }
  for (const auto& msg : wm_msgs.value_or({})) {
    auto wm = mq::DecodeRecordWatermark(msg->value);
    if (!wm.ok()) continue;
    if (wm->published_through > watermark_seq_) {
      watermark_seq_ = wm->published_through;
      progress = true;
    }
    if (wm->closed && !closed_) {
      closed_ = true;
      progress = true;
    }
  }
  DiscoverTopics();
  // Every topic is polled every round — even one whose head is still
  // above the watermark. Skipping it would leave its pin behind, which
  // (under bounded retention) parks the publish into that topic, which
  // blocks the very flush whose watermark would make that head
  // emittable: deadlock. Polling unconditionally keeps pins current;
  // a poll fetches at most what the log holds past the pin, which under
  // bounded retention is the retention plus one batch.
  for (auto& t : topics_) {
    auto msgs = t.consumer.Poll();
    if (!msgs.ok()) {
      // Truncated: retention overran this cursor (it was created before
      // the pin, or re-seeked below the low-watermark). Surfaced, not
      // papered over — a silent gap would break the identity guarantee.
      status_ = msgs.status();
      return progress;
    }
    for (auto& m : *msgs) {
      t.fetched.push_back(std::move(m));
      progress = true;
    }
    // Everything below the cursor is now held in `fetched`; let
    // retention have it (which wakes a publish parked on this pin).
    t.pin.Advance(t.consumer.position());
  }
  return progress;
}

bool RecordSubscriber::DecodeHead(Topic& t) {
  while (!t.has_head) {
    auto more = t.reader.Next(t.head);
    if (!more.ok()) {
      status_ = more.status();
      return false;
    }
    if (*more) {
      t.has_head = t.head.seq >= options_.from_seq;
      continue;
    }
    if (t.fetched.empty()) return true;
    if (Status st = t.reader.Open(std::move(t.fetched.front())); !st.ok()) {
      status_ = st;
      return false;
    }
    t.fetched.pop_front();
  }
  return true;
}

std::optional<core::Record> RecordSubscriber::NextRecord() {
  if (!status_.ok()) return std::nullopt;
  size_t idle_polls = 0;
  for (;;) {
    if (options_.cancel && options_.cancel()) return std::nullopt;
    // Emit loop, before any poll: the smallest head, once the watermark
    // (or the close) proves no smaller seq can still arrive on a quiet
    // topic. PollOnce reads the watermark before the record topics, so
    // every record below the watermark is already fetched, and emitting
    // without polling again keeps seq order.
    for (;;) {
      Topic* best = nullptr;
      for (auto& t : topics_) {
        if (!DecodeHead(t)) return std::nullopt;
        if (t.has_head && (!best || t.head.seq < best->head.seq)) best = &t;
      }
      if (!best) break;
      if (best->head.seq >= watermark_seq_ && !closed_) break;
      best->has_head = false;
      next_seq_ = best->head.seq + 1;
      if (options_.filters.MatchesRecord(best->head.record))
        return std::move(best->head.record);
    }
    if (closed_) {
      // The poll that saw the close then fetched every topic, and the
      // emit loop above drained what it fetched: this is the end.
      return std::nullopt;
    }
    const bool progress = PollOnce();
    if (!status_.ok()) return std::nullopt;
    if (progress) {
      idle_polls = 0;
      continue;
    }
    ++idle_polls;
    if (options_.max_consecutive_polls &&
        idle_polls >= options_.max_consecutive_polls)
      return std::nullopt;
    if (options_.poll_wait) {
      options_.poll_wait();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

std::vector<core::Elem> RecordSubscriber::Elems(core::Record& record) const {
  // Mirror of BgpStream::Elems on the worker-extraction path: move the
  // cached elems out, except here they arrive unfiltered off the wire,
  // so this subscriber's elem filters apply now — same predicate, same
  // order, same output as the direct stream.
  std::vector<core::Elem> elems;
  if (record.prefetched_elems.has_value()) {
    elems = std::move(*record.prefetched_elems);
    record.prefetched_elems.reset();
  }
  options_.filters.FilterElemsInPlace(elems);
  return elems;
}

}  // namespace bgps::pool
