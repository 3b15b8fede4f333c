// live: bgplive under contention. One generator thread offers the
// pre-encoded BMP frames open-loop to LiveSource::IngestBmp at a fixed
// rate. The live tenant has bgplive's configuration on a 2-worker pool
// (deadline class, weight 4, 64-record flush, 10 ms poll_wait, budget
// 4096), and a weight-1 backfill tenant drains the archive-sync corpus
// on the same pool for the whole window. This is the only workload
// through BMP decode, LiveSource spooling and the live poll loop, and
// the only one where the executor and governor arbitrate between a
// latency-bound tenant and a bulk one.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/stream.hpp"
#include "openloop.hpp"
#include "pool/live_source.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;
namespace fs = std::filesystem;

namespace {

constexpr size_t kLiveThreads = 2;
constexpr size_t kFlushRecords = 64;

// The live tenant, as bgplive builds it. `stream` is declared after
// `source`, so it is destroyed first: it reads the source's feed.
struct LiveTenant {
  std::unique_ptr<pool::LiveSource> source;
  std::unique_ptr<core::BgpStream> stream;

  Status Start(StreamPool& pool, const std::string& spool) {
    pool::LiveSource::Options sopt;
    sopt.spool_dir = spool;
    sopt.flush_records = kFlushRecords;
    sopt.governor = pool.governor();
    sopt.executor = pool.executor();
    auto created = pool::LiveSource::Create(std::move(sopt));
    if (!created.ok()) return created.status();
    source = std::move(*created);
    core::BgpStream::Options topt;
    topt.poll_wait = [] {
      trace::Span span("live.poll_wait");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    };
    StreamPool::TenantOptions tenant;
    tenant.weight = 4;
    tenant.deadline = true;
    tenant.name = "live";
    stream = pool.CreateStream(std::move(topt), std::move(tenant));
    stream->SetLive(0);
    stream->SetDataInterface(source->feed());
    return stream->Start();
  }
};

// bgplive's set-up, from the first call into the system until the live
// tenant is started and ready to ingest. The spool directory exists
// beforehand, as a provisioned service's does: creating it is the
// filesystem's cost, and on an overlay filesystem under a busy host a
// mkdir took either ~20 us or ~750 us, for minutes at a time.
double SetupOnce(const std::string& spool) {
  fs::remove_all(spool);
  fs::create_directories(spool);
  const double t0 = Now();
  auto pool = StreamPool::Create({.threads = kLiveThreads});
  if (!pool.ok()) return 0.0;
  LiveTenant tenant;
  if (!tenant.Start(**pool, spool).ok()) return 0.0;
  const double setup = Now() - t0;
  (void)tenant.source->Close();
  tenant.stream.reset();
  tenant.source.reset();
  fs::remove_all(spool);
  return setup;
}

// The weight-1 backfill tenant: drains the archive corpus over and over
// on its own thread until stopped. Every complete drain is checked
// against the sequential digest.
class Backfill {
 public:
  Backfill(StreamPool* pool, const Archive& archive, const StreamRef& ref)
      : pool_(pool), archive_(archive), ref_(ref), thread_([this] { Loop(); }) {}
  ~Backfill() { Stop(); }
  Backfill(const Backfill&) = delete;
  Backfill& operator=(const Backfill&) = delete;

  uint64_t records() const { return records_.load(std::memory_order_relaxed); }
  // After Stop(): the most files any drain had open at once.
  size_t max_open_files() const { return max_open_files_; }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // After Stop(): the checked drains.
  void Report(Outcome& o) const {
    for (size_t i = 0; i < drains_.size(); ++i) {
      const StreamRef& got = drains_[i];
      o.Check(got.records == ref_.records && got.elems == ref_.elems &&
                  got.digest == ref_.digest,
              ref_.records,
              "live backfill drain " + std::to_string(i) + ": digest " +
                  Hex(got.digest) + " vs sequential " + Hex(ref_.digest));
    }
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      broker::Broker broker(archive_.root);
      core::BrokerDataInterface broker_di(&broker);
      TimedDataInterface di(&broker_di);
      core::BgpStream::Options options;
      options.file_open_hook = FileOpenSpan;
      StreamPool::TenantOptions tenant;
      tenant.name = "backfill";
      auto stream = pool_->CreateStream(std::move(options), std::move(tenant));
      stream->SetInterval(archive_.start, archive_.end);
      stream->SetDataInterface(&di);
      if (!stream->Start().ok()) {
        drains_.push_back({});  // fails the check
        return;
      }
      const StreamRef got = Drain(
          *stream, "stream.next_record", "stream.elems", false,
          [&](uint64_t) { return !stop_.load(std::memory_order_relaxed); },
          [&](uint64_t) { records_.fetch_add(1, std::memory_order_relaxed); });
      max_open_files_ = std::max(max_open_files_, stream->max_open_files());
      // A drain that Stop() cut short is not checked.
      if (!stop_.load()) drains_.push_back(stream->status().ok() ? got : StreamRef{});
    }
  }

  StreamPool* pool_;
  const Archive& archive_;
  const StreamRef& ref_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> records_{0};
  std::vector<StreamRef> drains_;  // written by the thread until joined
  size_t max_open_files_ = 0;      // likewise
  std::thread thread_;             // last: starts after the fields it uses
};

struct Pass {
  bool ok = false;
  double window_s = 0.0;
  double backfill_rate = 0.0;
  double rss_mb = 0.0;
  size_t backfill_max_open_files = 0;
  uint64_t ingest_failures = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  StreamRef out;
  pool::LiveSource::Stats source;
};

// One live window, from scratch: a fresh pool, the backfill tenant
// draining on it, then the live tenant started and the whole frame set
// offered open-loop at `rate`. A traced pass samples the pool into
// `layer`. The backfill's drains are checked into `outcome`.
Pass RunPass(const Inputs& in, const std::vector<uint32_t>& record_frames,
             double rate, const std::string& spool,
             std::map<std::string, double>* layer, Outcome& outcome) {
  Pass p;
  const Frames& frames = in.frames;
  fs::remove_all(spool);
  auto pool = StreamPool::Create({.threads = kLiveThreads});
  if (!pool.ok()) return p;
  std::optional<PoolSampler> sampler;
  if (layer != nullptr) sampler.emplace(pool->get());
  Backfill backfill(pool->get(), in.archive, in.archive_ref);
  LiveTenant tenant;
  if (!tenant.Start(**pool, spool).ok()) return p;
  ResetPeakRss();
  p.latency_ms.reserve(record_frames.size());
  p.late_ms.reserve(frames.size());
  const double start = Now() + 0.005;  // consumer is polling by then
  const uint64_t backfill0 = backfill.records();
  double last_record = start;
  bool stream_ok = false;
  std::thread consumer([&] {
    p.out = Drain(
        *tenant.stream, "live.next_record", "live.elems", true,
        [](uint64_t) { return true; },
        [&](uint64_t k) {
          last_record = Now();
          if (k < record_frames.size()) {
            p.latency_ms.push_back(openloop::LatencyMs(
                openloop::DueTime(start, record_frames[k], rate), last_record));
          }
        });
    stream_ok = tenant.stream->status().ok();
  });
  using Clock = std::chrono::steady_clock;
  for (size_t i = 0; i < frames.size(); ++i) {
    const double due = openloop::DueTime(start, i, rate);
    double now = Now();
    if (now < due) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(due))));
      now = Now();
    }
    p.late_ms.push_back(openloop::LatenessMs(due, now));
    trace::Span span("live.ingest");
    if (!tenant.source->IngestBmp(frames.frame(i)).ok()) ++p.ingest_failures;
  }
  const bool closed = tenant.source->Close().ok();
  consumer.join();
  const uint64_t backfill1 = backfill.records();
  p.window_s = last_record - start;
  p.backfill_rate = double(backfill1 - backfill0) / p.window_s;
  p.rss_mb = PeakRssMiB();
  p.source = tenant.source->stats();
  p.ok = closed && stream_ok;
  backfill.Stop();
  backfill.Report(outcome);
  p.backfill_max_open_files = backfill.max_open_files();
  if (sampler) sampler->StopInto(*layer);
  tenant.stream.reset();
  tenant.source.reset();
  fs::remove_all(spool);
  return p;
}

}  // namespace

Outcome RunLive(const Config& config, const Inputs& in) {
  Outcome o;
  const Frames& frames = in.frames;
  const StreamRef& ref = in.live_ref.stream;
  const auto record_frames = openloop::RecordFrames(in.live_ref.records_per_frame);
  const double rate = in.scale.live_rate;
  const std::string spool = config.cache_dir + "/live-spool-" +
                            std::to_string(::getpid());
  std::map<std::string, double> layer;
  // Per untraced pass: latency median and generator lateness, for the
  // summary; the pass loop keeps the rest.
  std::vector<double> p50, p99, late99, traced_p50;
  double late_max = 0.0, traced_window = 0.0;
  size_t samples = 0, max_open = 0;
  bool p99_supported = true;
  pool::LiveSource::Stats traced_source;
  const Rates rates = RunPasses(
      config, o,
      [&](int n, bool traced) {
        const Pass p = RunPass(in, record_frames, rate, spool,
                               traced ? &layer : nullptr, o);
        o.Check(p.ok && p.ingest_failures == 0 && p.out.records == ref.records &&
                    p.out.elems == ref.elems && p.out.digest == ref.digest,
                frames.size(),
                "live pass " + std::to_string(n) + ": " +
                    std::to_string(p.ingest_failures) + " ingest failures, " +
                    std::to_string(p.out.records) + " records / " +
                    std::to_string(p.out.elems) + " elems / digest " +
                    Hex(p.out.digest) + " vs direct decode " +
                    std::to_string(ref.records) + " / " +
                    std::to_string(ref.elems) + " / " + Hex(ref.digest));
        const auto lat50 = openloop::NearestRank(p.latency_ms, 50);
        const auto lat99 = openloop::NearestRank(p.latency_ms, 99);
        const auto gen99 = openloop::NearestRank(p.late_ms, 99);
        const double gen_max =
            p.late_ms.empty() ? 0.0
                              : *std::max_element(p.late_ms.begin(), p.late_ms.end());
        char line[256];
        std::snprintf(line, sizeof(line),
                      "live pass %d%s: latency p50 %.3f ms p99 %.3f ms (%zu "
                      "samples); generator late p99 %.3f ms max %.3f ms; %zu "
                      "parks; backfill %.0f records/s",
                      n, traced ? " (traced)" : "", lat50.value, lat99.value,
                      lat99.samples, gen99.value, gen_max, p.source.parks,
                      p.backfill_rate);
        o.notes.push_back(line);
        if (traced) {
          traced_p50.push_back(lat50.value);
          traced_window += p.window_s;
          max_open = std::max(max_open, p.backfill_max_open_files);
          traced_source.dumps_published += p.source.dumps_published;
          traced_source.parks += p.source.parks;
          traced_source.corrupt_frames += p.source.corrupt_frames;
        } else {
          p50.push_back(lat50.value);
          p99.push_back(lat99.value);
          late99.push_back(gen99.value);
          late_max = std::max(late_max, gen_max);
          samples += lat99.samples;
          p99_supported = p99_supported && lat99.supported();
        }
        return PassResult{p.backfill_rate, lat50.value, lat99.value, p.rss_mb};
      },
      [&] {
        const double setup = SetupOnce(spool);
        o.Check(setup > 0.0, 1, "live set-up: the pool or the live tenant did not start");
        return setup;
      });
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "live: %zu frames per pass offered open-loop at %.0f/s; "
                "latency_p50_ms %.3f latency_p99_ms %.3f (medians over %zu "
                "passes, %zu samples); generator late p99 %.3f ms, max %.3f ms",
                frames.size(), rate, Median(p50), Median(p99), p50.size(),
                samples, Median(late99), late_max);
  o.notes.push_back(buf);
  if (!p99_supported)
    o.Fail("live: a pass had fewer than 10 latency samples beyond its p99");
  if (!config.trace) {
    o.notes.push_back("live: records_per_s is the backfill tenant's rate "
                      "(backfill_records_per_s)");
    return o;
  }
  auto& v = o.values;
  const double passes = double(rates.traced_passes);
  AddSpanMetrics(passes, v);
  RunLayerPasses(in.archive, v);
  for (const char* name : {"executor.tasks_run", "executor.dispatch_rounds",
                           "tenant.reclaims"})
    v[name] = layer[name] / passes;
  for (const char* name :
       {"governor.max_in_use", "governor.waiting_max", "tenant.queue_depth_max"})
    v[name] = layer[name];
  v["stream.max_open_files"] = double(max_open);
  v["live.dumps_published"] = double(traced_source.dumps_published) / passes;
  v["live.parks"] = double(traced_source.parks) / passes;
  v["live.corrupt_frames"] = double(traced_source.corrupt_frames) / passes;
  v["gen.late_p99_ms"] = Median(late99);
  v["gen.late_max_ms"] = late_max;
  v["latency_samples"] = double(samples);
  // The live consumer's spans (poll waits nested in NextRecord) against
  // the live window.
  v["attribution_gap"] =
      1.0 - (trace::Total("live.next_record") + trace::Total("live.elems")) /
                traced_window;
  std::snprintf(buf, sizeof(buf),
                "live: traced latency_p50_ms %.3f vs untraced %.3f",
                Median(traced_p50), Median(p50));
  o.notes.push_back(buf);
  FinishTrace(config, rates,
              double(in.archive_ref.records) /
                  double(in.archive.end - in.archive.start),
              o);
  return o;
}

}  // namespace perfbench
