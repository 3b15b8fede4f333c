// In-process Kafka stand-in (paper §6.2): named topics of partitioned,
// offset-addressed, append-only message logs.
//
// Preserves the properties the architecture relies on: per-partition
// ordering, offset-based consumption (many independent consumers), and
// thread safety (producers and consumers may run on different threads).
// Durability/replication are out of scope — the cluster lives in memory.
//
// Record-plane fan-out additions (the mq layer is the shared transport
// between one decoding publisher and N cheap subscribers):
//  * Per-partition locking. The cluster-wide mutex only guards topic
//    creation/lookup; appends and fetches on different partitions never
//    contend, and a slow fetch never stalls an unrelated publish.
//  * Zero-copy hand-off. The log stores shared immutable messages and
//    Fetch/Poll return `MessagePtr` handles — a fetch copies shared_ptrs
//    under the partition lock, never the payload bytes, so fanning one
//    batch out to N consumers costs N refcounts, not N byte copies.
//  * Bounded retention. A topic may cap its per-partition log by message
//    count and/or payload bytes (high-watermarks); exceeding either
//    truncates from the front and advances the `first_offset`
//    low-watermark. A Fetch from below the low-watermark reports an
//    explicit Truncated status instead of silently returning nothing.
//  * Retention pins. A consumer that must be able to replay (a fan-out
//    subscriber) pins its cursor: truncation never advances past the
//    smallest pinned offset. A publish into a bounded partition that a
//    pin holds over its bound waits until the pin advances or is
//    released, so a pinned-but-slow consumer converts retention
//    pressure into publisher backpressure instead of data loss, and
//    the partition's retention is the only bound on its memory.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace bgps::mq {

struct Message {
  std::string key;
  Bytes value;
  Timestamp timestamp = 0;
  uint64_t offset = 0;  // assigned by the partition on append
};

// Shared immutable handle to an appended message. The log and every
// consumer share one copy of the payload bytes.
using MessagePtr = std::shared_ptr<const Message>;

// Per-partition retention high-watermarks. 0 = unbounded (the default:
// RT-plugin topics and the existing consumers keep full history).
// Truncation always keeps at least the newest message and never passes
// a retention pin; a pinned partition exceeds its bound by at most one
// message (see Cluster::Publish).
struct RetentionOptions {
  size_t max_messages = 0;
  size_t max_bytes = 0;  // sum of Message::value sizes
};

class Cluster {
 public:
  Cluster() = default;
  // Default retention applied to topics auto-created by Publish and to
  // CreateTopic calls without an explicit override.
  explicit Cluster(RetentionOptions default_retention)
      : default_retention_(default_retention) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates the topic if needed. Partition counts and retention are
  // fixed at first use.
  void CreateTopic(const std::string& topic, size_t partitions = 1);
  void CreateTopic(const std::string& topic, size_t partitions,
                   RetentionOptions retention);

  // Appends and returns the assigned offset. Auto-creates 1-partition
  // topics (like Kafka's auto.create.topics). May truncate the front of
  // the partition to enforce its retention watermarks. If a pin holds
  // the partition over its bound, first waits until a pin advances or
  // is released, so a pinned partition exceeds its bound by at most one
  // message. Unbounded and unpinned partitions never wait, and neither
  // does a message too large for max_bytes on its own. A thread holding
  // a pin on a bounded topic must therefore not publish into that
  // topic: it would wait on itself.
  uint64_t Publish(const std::string& topic, size_t partition,
                   Message message);

  // Messages with offset >= `from_offset`, up to `max` messages and
  // `max_bytes` payload bytes (0 = unbounded; at least one message is
  // returned when any is available, so a byte budget smaller than one
  // message still makes progress). Shared handles — the payload is
  // never copied. A missing topic/partition or a `from_offset` at or
  // past the end yields an empty vector; a `from_offset` below the
  // truncation low-watermark yields StatusCode::Truncated.
  Result<std::vector<MessagePtr>> Fetch(const std::string& topic,
                                        size_t partition,
                                        uint64_t from_offset, size_t max = 0,
                                        size_t max_bytes = 0) const;

  // Next offset to be assigned (== number of messages ever appended).
  uint64_t EndOffset(const std::string& topic, size_t partition) const;

  // Truncation low-watermark: smallest offset still retained (==
  // EndOffset when the partition is empty). 0 for unknown topics.
  uint64_t FirstOffset(const std::string& topic, size_t partition) const;

  // Payload bytes currently retained in the partition (stats/tests).
  size_t RetainedBytes(const std::string& topic, size_t partition) const;

  size_t partitions(const std::string& topic) const;
  std::vector<std::string> topics() const;

 private:
  struct Partition;

 public:
  // Retention pin handle: while live, truncation of its partition never
  // advances past the pinned offset. Movable, auto-releasing; must not
  // outlive the Cluster. Advancing (monotonic) or releasing may trigger
  // the truncation the pin was holding back, which wakes the publishes
  // waiting on it.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept;
    ~Pin() { Release(); }

    void Advance(uint64_t offset);
    void Release();
    explicit operator bool() const { return part_ != nullptr; }

   private:
    friend class Cluster;
    Pin(Partition* part, uint64_t id) : part_(part), id_(id) {}
    Partition* part_ = nullptr;
    uint64_t id_ = 0;
  };

  // Pins `offset` (clamped up to the current low-watermark) in the
  // topic's partition, creating the topic if needed.
  Pin CreatePin(const std::string& topic, size_t partition, uint64_t offset);

 private:
  struct PinEntry {
    uint64_t id = 0;
    uint64_t offset = 0;
  };

  struct Partition {
    mutable std::mutex mu;
    std::deque<MessagePtr> log;  // dense offsets [first_offset, next)
    uint64_t first_offset = 0;    // truncation low-watermark
    uint64_t next_offset = 0;     // end offset
    size_t bytes = 0;             // retained payload bytes
    RetentionOptions retention;
    std::vector<PinEntry> pins;
    uint64_t next_pin_id = 1;
    // Wakes the publishes parked while a pin holds the log over its
    // bound.
    std::condition_variable truncated;

    // More than one message and over either watermark. Once retention
    // is enforced, only a pin can leave the partition in this state.
    bool OverBoundLocked() const;
    // Pops front messages until the watermarks hold (respecting pins,
    // always keeping the newest message). Returns whether it dropped
    // any.
    bool EnforceRetentionLocked();
    uint64_t MinPinLocked() const;
  };
  struct Topic {
    // unique_ptr: Partition holds a mutex and must stay address-stable
    // so callers can operate on it after releasing the cluster mutex.
    std::vector<std::unique_ptr<Partition>> parts;
  };

  Topic& GetOrCreateLocked(const std::string& topic, size_t partitions,
                           RetentionOptions retention);
  // nullptr when the topic/partition does not exist.
  Partition* Find(const std::string& topic, size_t partition) const;

  // Guards the topic map only; per-partition state is under Partition::mu.
  mutable std::mutex mu_;
  std::map<std::string, Topic> topics_;
  RetentionOptions default_retention_;
};

// Offset-tracking consumer handle for one (topic, partition).
class Consumer {
 public:
  Consumer(const Cluster* cluster, std::string topic, size_t partition = 0)
      : cluster_(cluster), topic_(std::move(topic)), partition_(partition) {}

  // Fetches messages new since the last Poll, bounded by `max` messages
  // and `max_bytes` payload bytes (0 = unbounded). On success the
  // cursor advances past the returned messages. When the cursor fell
  // below the partition's truncation low-watermark the Truncated error
  // is returned and the cursor does not move — the caller decides
  // between failing and SeekToFirst().
  Result<std::vector<MessagePtr>> Poll(size_t max = 0, size_t max_bytes = 0);

  uint64_t position() const { return offset_; }
  void Seek(uint64_t offset) { offset_ = offset; }
  // Repositions at the retention low-watermark (accepting the gap).
  void SeekToFirst() { offset_ = cluster_->FirstOffset(topic_, partition_); }

  const std::string& topic() const { return topic_; }
  size_t partition() const { return partition_; }

 private:
  const Cluster* cluster_;
  std::string topic_;
  size_t partition_;
  uint64_t offset_ = 0;
};

}  // namespace bgps::mq
