// Data interfaces (paper §3.2): how the stream learns which dump files to
// read. The Broker interface is primary; Single-file and CSV cover local
// analysis. (The real release also ships an SQLite interface; CSV covers
// the same "local index" use case here — see DESIGN.md.)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_set>

#include "broker/broker.hpp"
#include "core/filter.hpp"

namespace bgps::core {

// One batch of dump files to merge, pulled on demand (client-pull model,
// §3.3.2: data is only retrieved when the user is ready to process it).
struct DataBatch {
  std::vector<broker::DumpFileMeta> files;
  bool end_of_stream = false;  // no further batches will ever come
  bool retry_later = false;    // live mode: poll again after a delay
};

class DataInterface {
 public:
  virtual ~DataInterface() = default;

  // Applies meta filters + interval and returns the next batch.
  virtual DataBatch NextBatch(const FilterSet& filters) = 0;

  // Live-mode hook invoked before a retry poll (re-scan the archive).
  virtual void Refresh() {}
};

// Primary interface: windowed queries against a Broker (paper §3.2).
class BrokerDataInterface : public DataInterface {
 public:
  explicit BrokerDataInterface(broker::Broker* broker) : broker_(broker) {}

  DataBatch NextBatch(const FilterSet& filters) override;
  void Refresh() override { (void)broker_->Rescan(); }

 private:
  broker::Broker* broker_;
  std::optional<Timestamp> cursor_;
  std::unordered_set<std::string> served_;  // dump paths already returned
};

// Single local file, with explicit provenance annotations.
class SingleFileInterface : public DataInterface {
 public:
  SingleFileInterface(std::string path, DumpType type,
                      std::string project = "singlefile",
                      std::string collector = "singlefile");

  DataBatch NextBatch(const FilterSet& filters) override;

 private:
  broker::DumpFileMeta meta_;
  bool consumed_ = false;
};

// CSV index of local files. Line format:
//   project,collector,type(ribs|updates),start,duration,path
class CsvFileInterface : public DataInterface {
 public:
  // Parse errors are reported once via status(); malformed lines are
  // skipped.
  explicit CsvFileInterface(const std::string& csv_path);

  Status status() const { return status_; }
  DataBatch NextBatch(const FilterSet& filters) override;

 private:
  std::vector<broker::DumpFileMeta> files_;
  size_t next_ = 0;
  Status status_;
};

// Live feed: a thread-safe FIFO of dump files published by an in-process
// ingestion source (pool::LiveSource spools decoded live traffic into
// micro-dumps and Push()es each one here) and consumed by a live-mode
// BgpStream. Serves exactly ONE file per NextBatch, so the stream merges
// publications strictly in publication order — the emitted record
// sequence is the ingestion sequence, deterministically, with no
// cross-file timestamp reordering between micro-dumps. NextBatch is a
// long-poll: on an open, drained feed it first lets the publisher
// publish what it holds (`on_wait`), then blocks until the next Push()
// (returning that file at once) or Close() (end_of_stream at once), and
// answers retry_later only after kLongPoll without a publication, so the
// stream's poll_wait/Refresh/max_consecutive_polls loop runs only on an
// idle feed. While it blocks, consumer_waiting() tells the publisher to
// publish each record as it comes instead of batching. The consumer
// still calls only when it is ready for data (§3.3.2 client-pull). Meta
// filters are the publisher's concern (a live session is already one
// project/collector); record-level filters still apply downstream.
class LiveFeedInterface : public DataInterface {
 public:
  // `on_wait` runs on the consumer thread, without the feed's lock,
  // each time NextBatch is about to wait on an open, empty feed; the
  // publisher pushes its pending data there. Lock order: a publisher
  // lock held around Push() is taken before the feed's.
  explicit LiveFeedInterface(std::function<void()> on_wait = {});

  // Publishes one dump file to the consumer. Push after Close is a
  // programming error and is dropped (the stream may already have ended).
  void Push(broker::DumpFileMeta meta);

  // True while the consumer is blocked in NextBatch with nothing queued
  // for it: data published now reaches it at once.
  bool consumer_waiting() const { return waiting_.load(); }

  // No further Push() will come; the stream ends once the queue drains.
  // Idempotent.
  void Close();

  bool closed() const;
  size_t published() const;  // files pushed so far (stats/tests)

  DataBatch NextBatch(const FilterSet& filters) override;

 private:
  // Longest NextBatch waits on an open, drained feed: the stream's
  // default poll_wait, so an idle feed is still re-polled about once a
  // second.
  static constexpr std::chrono::seconds kLongPoll{1};

  const std::function<void()> on_wait_;
  mutable std::mutex mu_;
  std::condition_variable changed_;  // a Push() or Close() happened
  std::deque<broker::DumpFileMeta> queue_;
  bool closed_ = false;
  size_t published_ = 0;
  // Set by NextBatch before on_wait_ runs, so a publisher that checks
  // it after on_wait_ has looked at its pending data sees it; cleared
  // once something is queued or the wait ends.
  std::atomic<bool> waiting_{false};
};

}  // namespace bgps::core
