#include "core/data_interface.hpp"

#include <charconv>
#include <fstream>

#include "util/strings.hpp"

namespace bgps::core {

DataBatch BrokerDataInterface::NextBatch(const FilterSet& filters) {
  broker::BrokerQuery query;
  query.projects = filters.projects;
  query.collectors = filters.collectors;
  query.types = filters.dump_types;
  query.interval = filters.interval;

  DataBatch batch;
  // Walk windows until one yields files, ends the stream, or asks for a
  // poll — each Query is one lightweight HTTP round-trip in the real
  // system, so looping over empty windows here mirrors its behaviour.
  Timestamp cursor = cursor_.value_or(filters.interval.start);
  while (true) {
    broker::BrokerResponse resp = broker_->Query(query, cursor);
    cursor = resp.next_cursor;
    if (!resp.files.empty()) {
      // Live mode can legitimately re-offer files behind a publication
      // frontier (see Broker::Query); serve each dump exactly once.
      std::vector<broker::DumpFileMeta> fresh;
      for (auto& f : resp.files) {
        if (served_.insert(f.path).second) fresh.push_back(std::move(f));
      }
      if (!fresh.empty()) {
        batch.files = std::move(fresh);
        break;
      }
      if (filters.interval.live()) {
        // Everything on offer was already served: wait for new data.
        batch.retry_later = true;
        break;
      }
      continue;
    }
    if (resp.retry_later) {
      batch.retry_later = true;
      break;
    }
    if (resp.exhausted) {
      batch.end_of_stream = true;
      break;
    }
  }
  cursor_ = cursor;
  return batch;
}

SingleFileInterface::SingleFileInterface(std::string path, DumpType type,
                                         std::string project,
                                         std::string collector) {
  meta_.path = std::move(path);
  meta_.type = type;
  meta_.project = std::move(project);
  meta_.collector = std::move(collector);
  meta_.start = 0;
  meta_.duration = 0;
}

DataBatch SingleFileInterface::NextBatch(const FilterSet& filters) {
  DataBatch batch;
  if (consumed_) {
    batch.end_of_stream = true;
    return batch;
  }
  consumed_ = true;
  if (filters.MatchesMeta(meta_.project, meta_.collector, meta_.type)) {
    batch.files.push_back(meta_);
  } else {
    batch.end_of_stream = true;
  }
  return batch;
}

CsvFileInterface::CsvFileInterface(const std::string& csv_path) {
  std::ifstream in(csv_path);
  if (!in.is_open()) {
    status_ = IoError("cannot open CSV index " + csv_path);
    return;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto cols = SplitString(line, ',');
    if (cols.size() != 6) continue;
    broker::DumpFileMeta meta;
    meta.project = cols[0];
    meta.collector = cols[1];
    if (cols[2] == "ribs") meta.type = DumpType::Rib;
    else if (cols[2] == "updates") meta.type = DumpType::Updates;
    else continue;
    auto parse_ts = [](const std::string& s, Timestamp* out) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (ec != std::errc() || p != s.data() + s.size()) return false;
      *out = v;
      return true;
    };
    if (!parse_ts(cols[3], &meta.start) || !parse_ts(cols[4], &meta.duration))
      continue;
    meta.path = cols[5];
    files_.push_back(std::move(meta));
  }
  std::sort(files_.begin(), files_.end());
}

DataBatch CsvFileInterface::NextBatch(const FilterSet& filters) {
  DataBatch batch;
  // Serve all matching files in one batch: CSV indexes are small local
  // collections, windowing adds nothing.
  while (next_ < files_.size()) {
    const auto& f = files_[next_++];
    if (!filters.MatchesMeta(f.project, f.collector, f.type)) continue;
    if (!filters.interval.overlaps(f.start, f.end())) continue;
    batch.files.push_back(f);
  }
  if (batch.files.empty()) batch.end_of_stream = true;
  return batch;
}

LiveFeedInterface::LiveFeedInterface(std::function<void()> on_wait)
    : on_wait_(std::move(on_wait)) {}

void LiveFeedInterface::Push(broker::DumpFileMeta meta) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    queue_.push_back(std::move(meta));
    ++published_;
    waiting_.store(false);
  }
  changed_.notify_one();
}

void LiveFeedInterface::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  changed_.notify_all();
}

bool LiveFeedInterface::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t LiveFeedInterface::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

DataBatch LiveFeedInterface::NextBatch(const FilterSet&) {
  DataBatch batch;
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty() && !closed_) {
    waiting_.store(true);
    if (on_wait_) {
      lock.unlock();
      on_wait_();
      lock.lock();
    }
    changed_.wait_for(lock, kLongPoll,
                      [this] { return !queue_.empty() || closed_; });
    waiting_.store(false);
  }
  if (!queue_.empty()) {
    batch.files.push_back(std::move(queue_.front()));
    queue_.pop_front();
    return batch;
  }
  if (closed_) {
    batch.end_of_stream = true;
  } else {
    batch.retry_later = true;
  }
  return batch;
}

}  // namespace bgps::core
