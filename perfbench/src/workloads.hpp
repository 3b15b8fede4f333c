// The four workloads and what they share: run configuration, the
// outcome they report, the pass loop, the drain-and-digest consumer and
// the traced-run helpers (a timing DataInterface, StreamPool sampling,
// and the separate per-layer passes over a workload's own inputs).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/data_interface.hpp"
#include "core/filter.hpp"
#include "inputs.hpp"
#include "openloop.hpp"
#include "mq/log.hpp"
#include "pool/stream_pool.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

// bgpcorsaro -x rt:shards=3 with 900 s bins on a 3-worker executor.
inline constexpr bgps::Timestamp kRtBinSeconds = 900;
inline constexpr size_t kRtShards = 3;
inline constexpr size_t kRtThreads = 3;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string scale = "full";
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value
  std::vector<std::string> notes;        // human-readable context

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  // Counts one checked unit of `n` operations (records or frames).
  void Check(bool ok, uint64_t n, const std::string& what) {
    attempted += n;
    if (!ok) {
      failed += n;
      Fail(what);
    }
  }
};

Outcome RunArchiveSync(const Config& config, const Inputs& in);
Outcome RunRibRt(const Config& config, const Inputs& in);
Outcome RunFanout(const Config& config, const Inputs& in);
Outcome RunLive(const Config& config, const Inputs& in);

// Prints the notes, then the result as one JSON object on the last line
// of standard output: correct, attempted, failed and the measured
// values by metric name. run.py attaches the units BENCHMARK.json
// declares.
void PrintResult(const Config& config, const Outcome& outcome);

// --- pass loop ------------------------------------------------------------

// Set-up takes microseconds to milliseconds, so the pass loop times it
// kSetupReps times after every untraced pass: many samples, spread over
// the whole run rather than taken at one moment of the host's state.
inline constexpr int kSetupReps = 8;
// Every run measures at least this many passes of each kind.
inline constexpr int kMinPasses = 3;

// What one measured pass reports to the pass loop.
struct PassResult {
  double records_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mb = 0.0;
};

// Median records_per_s of the untraced and of the traced passes.
struct Rates {
  double untraced = 0.0;
  double traced = 0.0;
  size_t traced_passes = 0;
};

// The pass loop of every workload. Runs `pass(n, traced)` back to back
// until config.seconds have elapsed and at least kMinPasses passes of
// each kind ran; with config.trace every second pass is traced (spans
// recorded under run id n). After every untraced pass of an untraced
// run, `setup` (one set-up, returning its seconds) runs kSetupReps
// times. An untraced run sets the end-to-end metrics in `outcome`:
// medians over the passes, and setup_s the median set-up.
Rates RunPasses(const Config& config, Outcome& outcome,
                const std::function<PassResult(int, bool)>& pass,
                const std::function<double()>& setup);

// Per-record delivery latency on the archive workloads: how long the
// consumer waits from asking for its next record (calling NextRecord;
// on rib-rt, the RT plugin returning from the previous record) until it
// holds it. Every 8th record is timed, so the clock reads cost nothing
// measurable. The first record's arrival also ends set-up.
class RecordLatency {
 public:
  explicit RecordLatency(double t0) : t0_(t0) {}
  // Before asking for record `n` (0-based).
  void Ask(uint64_t n) {
    if ((n & kEvery) == 0) asked_ = Now();
  }
  // Once record `n` is in hand.
  void Got(uint64_t n) {
    if ((n & kEvery) != 0) return;
    const double now = Now();
    if (n == 0) first_s_ = now - t0_;
    samples_ms_.push_back((now - asked_) * 1e3);
  }
  double first_s() const { return first_s_; }
  double p50_ms() const { return openloop::NearestRank(samples_ms_, 50).value; }
  double p99_ms() const { return openloop::NearestRank(samples_ms_, 99).value; }

 private:
  static constexpr uint64_t kEvery = 7;  // sample when (n & 7) == 0
  double t0_;
  double asked_ = 0.0;
  double first_s_ = 0.0;
  std::vector<double> samples_ms_;
};

// Drains `stream` (a BgpStream or a RecordSubscriber) and digests every
// record and elem, with a `next_span` span around each NextRecord and an
// `elems_span` span around each Elems call. `ask(n)` runs before record
// n is asked for and ends the drain when it returns false; `got(n)` runs
// once record n is in hand. `content` digests records without their
// dump framing (Digest::AddRecordContent).
template <typename Stream, typename Ask, typename Got>
StreamRef Drain(Stream& stream, const char* next_span, const char* elems_span,
                bool content, Ask&& ask, Got&& got) {
  StreamRef out;
  Digest digest;
  std::vector<bgps::core::Elem> elems;
  while (ask(out.records)) {
    std::optional<bgps::core::Record> rec;
    {
      trace::Span span(next_span);
      rec = stream.NextRecord();
    }
    if (!rec) break;
    got(out.records++);
    if (content) {
      digest.AddRecordContent(*rec);
    } else {
      digest.AddRecord(*rec);
    }
    {
      trace::Span span(elems_span);
      elems = stream.Elems(*rec);
    }
    out.elems += elems.size();
    for (const auto& e : elems) digest.AddElem(e);
  }
  out.digest = digest.value();
  return out;
}

// --- traced-run helpers -----------------------------------------------------

// Forwards to the broker interface, with a "broker.next_batch" span
// around each NextBatch call.
class TimedDataInterface : public bgps::core::DataInterface {
 public:
  explicit TimedDataInterface(bgps::core::DataInterface* inner)
      : inner_(inner) {}
  bgps::core::DataBatch NextBatch(
      const bgps::core::FilterSet& filters) override {
    trace::Span span("broker.next_batch");
    return inner_->NextBatch(filters);
  }
  void Refresh() override { inner_->Refresh(); }

 private:
  bgps::core::DataInterface* inner_;
};

// BgpStream::Options::file_open_hook that records a "stream.file_open"
// span per dump file opened.
void FileOpenSpan(const bgps::broker::DumpFileMeta& meta);

// Samples StreamPool::Stats() every 100 ms while alive and keeps the
// runtime layer's maxima and counter deltas.
class PoolSampler {
 public:
  explicit PoolSampler(const bgps::StreamPool* pool);
  ~PoolSampler();
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  // Stops sampling (idempotent) and adds the values to `acc`.
  void StopInto(std::map<std::string, double>& acc);

 private:
  void Sample();

  const bgps::StreamPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool first_ = true;
  size_t tasks0_ = 0, rounds0_ = 0;
  size_t tasks_ = 0, rounds_ = 0, max_in_use_ = 0, waiting_max_ = 0;
  size_t queue_depth_max_ = 0, reclaims_ = 0;
  std::thread thread_;  // last: starts after the fields it samples into
};

// Separate per-layer passes over the dump files of an archive's window
// (every record in them, as the stream decodes them): MrtFileReader::Next,
// mrt::DecodeRecord, core::ExtractElems and FilterSet::MatchesElem (with
// the fanout workload's filter), each timed over the calls it makes for
// a whole dump file or a 4096-record chunk of one.
void RunLayerPasses(const Archive& archive, std::map<std::string, double>& out);

// Fetches every published batch back from `cluster` and times
// mq::DecodeRecordBatchInto and mq::EncodeRecordBatch over them (added
// to `out`); re-encoding must reproduce the published bytes.
void RunCodecPass(const bgps::mq::Cluster& cluster,
                  std::map<std::string, double>& out, Outcome& outcome);

// Per-pass means of the span aggregates collected over `passes` traced
// passes, under the per-layer metric names.
void AddSpanMetrics(double passes, std::map<std::string, double>& out);

// Common tail of a traced run: tracing overhead from the untraced and
// traced pass rates, the realtime headroom, and the raw span dump.
void FinishTrace(const Config& config, const Rates& rates,
                 double generation_rate, Outcome& outcome);

}  // namespace perfbench
