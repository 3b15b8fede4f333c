// Traced-run helpers: StreamPool sampling, the separate per-layer
// passes, the span -> per-layer metric mapping and the span dump.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/arena.hpp"
#include "core/elem.hpp"
#include "core/record.hpp"
#include "mq/serialize.hpp"
#include "mrt/file.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;
namespace fs = std::filesystem;

void FileOpenSpan(const broker::DumpFileMeta&) {
  trace::Span span("stream.file_open");
}

PoolSampler::PoolSampler(const StreamPool* pool)
    : pool_(pool), thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
          lock.unlock();
          Sample();
          lock.lock();
          cv_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; });
        }
      }) {}

PoolSampler::~PoolSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void PoolSampler::Sample() {
  const StreamPool::Snapshot snap = pool_->Stats();
  size_t reclaims = 0;
  size_t queue_depth = 0;
  for (const auto& t : snap.tenants) {
    reclaims += t.stats.reclaims;
    queue_depth = std::max(queue_depth, t.stats.queue_depth);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (first_) {
    tasks0_ = snap.executor.tasks_run;
    rounds0_ = snap.executor.dispatch_rounds;
    first_ = false;
  }
  tasks_ = snap.executor.tasks_run - tasks0_;
  rounds_ = snap.executor.dispatch_rounds - rounds0_;
  max_in_use_ = std::max(max_in_use_, snap.governor.max_in_use);
  waiting_max_ = std::max(waiting_max_, snap.governor.waiting);
  queue_depth_max_ = std::max(queue_depth_max_, queue_depth);
  reclaims_ = std::max(reclaims_, reclaims);
}

void PoolSampler::StopInto(std::map<std::string, double>& acc) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Sample();
  std::lock_guard<std::mutex> lock(mu_);
  acc["executor.tasks_run"] += double(tasks_);
  acc["executor.dispatch_rounds"] += double(rounds_);
  acc["tenant.reclaims"] += double(reclaims_);
  auto keep_max = [&](const char* name, size_t v) {
    acc[name] = std::max(acc[name], double(v));
  };
  keep_max("governor.max_in_use", max_in_use_);
  keep_max("governor.waiting_max", waiting_max_);
  keep_max("tenant.queue_depth_max", queue_depth_max_);
}

namespace {

// Records decoded per timed chunk: bounds the memory a RIB dump's
// decoded records take while keeping the clock reads per chunk, not
// per call.
constexpr size_t kChunkRecords = 4096;

struct RawCopy {
  mrt::RawRecord header;  // body re-pointed at `body` before decoding
  Bytes body;
};

}  // namespace

void RunLayerPasses(const Archive& archive, std::map<std::string, double>& out) {
  core::FilterSet filter;
  (void)filter.AddOption(kFilterKey, kFilterValue);
  const std::vector<std::string>& files = archive.paths;

  // MRT framing alone: MrtFileReader::Next over every file.
  double frame_s = 0.0;
  uint64_t records = 0;
  for (const auto& path : files) {
    const double t0 = Now();
    mrt::MrtFileReader reader;
    if (reader.Open(path).ok()) {
      while (reader.Next().ok()) ++records;
    }
    frame_s += Now() - t0;
  }

  // Decode, extraction and filtering, each timed over a chunk of calls
  // on the same records (framing and copying untimed).
  double decode_s = 0.0, extract_s = 0.0, filter_s = 0.0;
  uint64_t elems_seen = 0, elems_passed = 0;
  std::vector<RawCopy> raws;
  std::vector<core::Record> decoded;
  std::vector<core::Elem> elems;
  for (const auto& path : files) {
    mrt::MrtFileReader reader;
    if (!reader.Open(path).ok()) continue;
    core::Arena arena;
    bgp::AsPathCache cache(&arena);
    bgp::AttrDecodeCtx ctx{&cache};
    std::shared_ptr<const mrt::PeerIndexTable> peer_index;
    bool more = true;
    while (more) {
      raws.clear();
      while (raws.size() < kChunkRecords) {
        auto raw = reader.Next();
        if (!raw.ok()) {
          more = false;
          break;
        }
        raws.push_back({*raw, Bytes(raw->body.begin(), raw->body.end())});
      }
      decoded.clear();
      double t0 = Now();
      for (auto& r : raws) {
        r.header.body = r.body;
        auto msg = mrt::DecodeRecord(r.header, &ctx);
        if (!msg.ok()) continue;
        core::Record& rec = decoded.emplace_back();
        rec.timestamp = r.header.timestamp;
        rec.msg = std::move(*msg);
        if (rec.msg.is_peer_index())
          peer_index = std::make_shared<mrt::PeerIndexTable>(
              std::get<mrt::PeerIndexTable>(rec.msg.body));
        rec.peer_index = peer_index;
      }
      decode_s += Now() - t0;
      elems.clear();
      t0 = Now();
      for (const auto& rec : decoded) core::ExtractElemsInto(rec, elems);
      extract_s += Now() - t0;
      t0 = Now();
      for (const auto& e : elems) elems_passed += filter.MatchesElem(e) ? 1 : 0;
      filter_s += Now() - t0;
      elems_seen += elems.size();
    }
  }
  out["mrt.frame_s"] = frame_s;
  out["mrt.decode_s"] = decode_s;
  out["mrt.records"] = double(records);
  out["mrt.bytes"] = double(archive.bytes);
  out["core.extract_s"] = extract_s;
  out["core.filter_s"] = filter_s;
  out["filter.pass_ratio"] =
      elems_seen ? double(elems_passed) / double(elems_seen) : 0.0;
}

void RunCodecPass(const mq::Cluster& cluster,
                  std::map<std::string, double>& out, Outcome& outcome) {
  double encode_s = 0.0, decode_s = 0.0;
  uint64_t bytes = 0, batches = 0, mismatched = 0;
  mq::RecordBatchMessage scratch;
  for (const auto& topic : cluster.topics()) {
    if (topic.rfind(mq::kRecordTopicPrefix, 0) != 0) continue;
    mq::Consumer consumer(&cluster, topic);
    auto msgs = consumer.Poll();
    if (!msgs.ok()) {
      outcome.Fail("codec pass: " + msgs.status().ToString());
      continue;
    }
    for (const auto& m : *msgs) {
      ++batches;
      bytes += m->value.size();
      double t0 = Now();
      Status st = mq::DecodeRecordBatchInto(m->value, scratch);
      decode_s += Now() - t0;
      if (!st.ok()) {
        ++mismatched;
        continue;
      }
      t0 = Now();
      Bytes again = mq::EncodeRecordBatch(scratch);
      encode_s += Now() - t0;
      if (again != m->value) ++mismatched;
    }
  }
  if (mismatched > 0)
    outcome.Fail("codec pass: " + std::to_string(mismatched) +
                 " published batches do not survive decode + re-encode");
  out["mq.encode_s"] += encode_s;
  out["mq.decode_s"] += decode_s;
  out["mq.bytes_published"] += double(bytes);
  out["publisher.batches"] += double(batches);
}

void AddSpanMetrics(double passes, std::map<std::string, double>& out) {
  const auto spans = trace::Collect();
  auto stat = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? trace::Stat{} : it->second;
  };
  auto per_pass = [&](double v) { return passes > 0 ? v / passes : 0.0; };
  // Self times: a NextRecord span excludes the NextBatch and file-open
  // spans it nests, a subscriber's NextRecord its poll waits.
  const std::pair<const char*, const char*> self_times[] = {
      {"broker.next_batch_s", "broker.next_batch"},
      {"stream.next_record_s", "stream.next_record"},
      {"stream.elems_s", "stream.elems"},
      {"rt.on_record_s", "rt.on_record"},
      {"rt.bin_end_s", "rt.bin_end"},
      {"publisher.run_s", "publisher.run"},
      {"subscriber.next_record_s", "subscriber.next_record"},
      {"subscriber.poll_wait_s", "subscriber.poll_wait"},
      {"live.ingest_s", "live.ingest"},
      {"live.poll_wait_s", "live.poll_wait"},
  };
  for (const auto& [metric, span] : self_times)
    out[metric] = per_pass(stat(span).self_s);
  const std::pair<const char*, const char*> counts[] = {
      {"broker.batches", "broker.next_batch"},
      {"stream.file_opens", "stream.file_open"},
      {"subscriber.poll_waits", "subscriber.poll_wait"},
      {"live.poll_waits", "live.poll_wait"},
  };
  for (const auto& [metric, span] : counts)
    out[metric] = per_pass(double(stat(span).count));
  out["stream.next_record_p99_us"] = stat("stream.next_record").p99_s * 1e6;
  out["live.ingest_p99_us"] = stat("live.ingest").p99_s * 1e6;
}

void FinishTrace(const Config& config, const Rates& rates,
                 double generation_rate, Outcome& outcome) {
  auto& v = outcome.values;
  v["trace.overhead"] =
      rates.untraced > 0 ? 1.0 - rates.traced / rates.untraced : 0.0;
  v["realtime_headroom_x"] =
      generation_rate > 0 ? rates.untraced / generation_rate : 0.0;
  const std::string dir = config.cache_dir + "/traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + config.workload + "-s" +
                           std::to_string(config.seed) + ".spans.tsv";
  uint64_t recorded = trace::WriteSpans(path);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace: %llu spans recorded (first 500000 kept), written to ",
                (unsigned long long)recorded);
  outcome.notes.push_back(buf + path);
}

}  // namespace perfbench
