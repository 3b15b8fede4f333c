// fanout: bgpfanout. One publisher stream on a 1-worker StreamPool
// decodes the archive-sync corpus once into an mq::Cluster (unbounded
// retention, the bgpfanout default; 64-record batches). Two
// RecordSubscribers, one unfiltered and one with an elem filter that
// passes a real share of the elems, attach once half of the archive
// is published: they replay the retained prefix from the log and
// then tail the publisher concurrently, as clients connecting to a
// running bgpfanout do. The batch codec, log fetch and subscriber-side
// filtering dominate; MRT decode runs once; writes and reads share one
// log.
//
// Subscribers attached from the first record instead settle, pass by
// pass, in one of two states whose rates differ by half (tailing right
// behind the publisher at ~250k records/s summed, or lagging it at
// ~380k) depending on which thread the host delays first. Attaching
// half way through keeps the passes in the lagging state; attaching a
// quarter of the way in, one run in ten still caught up while the host
// was loaded.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/stream.hpp"
#include "pool/record_fanout.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;

namespace {

// Share of the archive published before the subscribers attach.
constexpr double kAttachAfter = 0.5;
constexpr size_t kBatchRecords = 64;
static_assert(kHeadRecords >= kBatchRecords,
              "a set-up must reach the first flush within the head copies");

struct SubscriberRun {
  bool ok = false;
  double first_s = 0.0;  // attached, from the pass start
  double last_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  StreamRef out;
};

void Subscribe(mq::Cluster* cluster, bool filtered, double t0,
               SubscriberRun* run) {
  pool::RecordSubscriber::Options options;
  options.cluster = cluster;
  if (filtered) (void)options.filters.AddOption(kFilterKey, kFilterValue);
  if (trace::Enabled()) {
    // The default wait (2 ms sleep), inside a span.
    options.poll_wait = [] {
      trace::Span span("subscriber.poll_wait");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
  }
  run->first_s = Now() - t0;
  pool::RecordSubscriber sub(std::move(options));
  if (!sub.Start().ok()) return;
  RecordLatency latency(t0);
  run->out = Drain(
      sub, "subscriber.next_record", "subscriber.elems", false,
      [&](uint64_t n) {
        latency.Ask(n);
        return true;
      },
      [&](uint64_t n) { latency.Got(n); });
  run->last_s = Now() - t0;
  run->p50_ms = latency.p50_ms();
  run->p99_ms = latency.p99_ms();
  run->ok = sub.status().ok();
}

// Serves the window's first batch with every file moved to its head
// copy, then ends the stream: a set-up-only publisher emits the same
// records up to its first flush (at most kBatchRecords from any file)
// and then stops within a few thousand records instead of draining the
// whole batch. The library has no way to stop a publisher part way.
class HeadsDataInterface : public core::DataInterface {
 public:
  HeadsDataInterface(core::DataInterface* inner, const Archive& a)
      : inner_(inner), archive_(a) {}
  core::DataBatch NextBatch(const core::FilterSet& filters) override {
    core::DataBatch batch;
    if (served_) {
      batch.end_of_stream = true;
      return batch;
    }
    served_ = true;
    batch = inner_->NextBatch(filters);
    for (auto& f : batch.files) f.path = HeadPath(archive_, f.path);
    return batch;
  }

 private:
  core::DataInterface* inner_;
  const Archive& archive_;
  bool served_ = false;
};

struct Pass {
  bool ok = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mb = 0.0;
  double log_mb = 0.0;  // payload the unbounded log retains at the end
  size_t max_open_files = 0;
  uint64_t delivered = 0;
  SubscriberRun sub[2];
};

// Records the publisher has published so far, from the newest
// watermark in the log (0 before the first flush).
uint64_t PublishedThrough(const mq::Cluster& cluster) {
  const uint64_t end = cluster.EndOffset(mq::kRecordWatermarkTopic, 0);
  if (end == 0) return 0;
  auto msgs = cluster.Fetch(mq::kRecordWatermarkTopic, 0, end - 1, 1);
  if (!msgs.ok() || msgs->empty()) return 0;
  auto wm = mq::DecodeRecordWatermark(msgs->front()->value);
  return wm.ok() ? wm->published_through : 0;
}

// One bgpfanout pass: publisher and both subscribers run to the end.
// A traced pass also samples the pool into `layer` and runs the codec
// pass over the published log before it is torn down. With
// `setup_only` the publisher reads the head copies and no subscriber
// attaches: the pass ends once set-up is timed and the heads drained.
Pass RunPass(const Archive& a, uint64_t records, bool setup_only,
             std::map<std::string, double>* layer, Outcome& outcome) {
  Pass p;
  if (!setup_only) ResetPeakRss();  // a set-up-only pass keeps the warm heap
  const double t0 = Now();
  auto pool = StreamPool::Create({.threads = 1});
  if (!pool.ok()) return p;
  broker::Broker broker(a.root);
  core::BrokerDataInterface broker_di(&broker);
  TimedDataInterface timed_di(&broker_di);
  HeadsDataInterface heads_di(&broker_di, a);
  core::BgpStream::Options options;
  options.file_open_hook = FileOpenSpan;
  StreamPool::TenantOptions tenant;
  tenant.name = "publisher";
  auto stream = (*pool)->CreateStream(std::move(options), std::move(tenant));
  stream->SetInterval(a.start, a.end);
  stream->SetDataInterface(setup_only ? static_cast<core::DataInterface*>(&heads_di)
                                      : &timed_di);
  if (!stream->Start().ok()) return p;
  std::optional<PoolSampler> sampler;
  if (layer != nullptr) sampler.emplace(pool->get());
  mq::Cluster cluster;
  bool published = false;
  std::atomic<bool> publisher_done{false};
  std::thread publisher([&] {
    trace::Span span("publisher.run");
    pool::RecordPublisher::Options publisher_options;
    publisher_options.cluster = &cluster;
    publisher_options.batch_records = kBatchRecords;
    pool::RecordPublisher pub(publisher_options);
    published = pub.Run(*stream).ok();
    publisher_done.store(true);
  });
  // Set-up ends when the first record is in the log, ready for any
  // subscriber; the subscribers attach half way through.
  const uint64_t attach_at = uint64_t(kAttachAfter * double(records));
  uint64_t published_through = 0;
  while ((published_through = PublishedThrough(cluster)) == 0 &&
         !publisher_done.load())
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  p.setup_s = Now() - t0;
  if (setup_only) {
    publisher.join();
    p.ok = published && published_through > 0;
    return p;
  }
  while (published_through < attach_at && !publisher_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    published_through = PublishedThrough(cluster);
  }
  std::thread subscribers[2];
  for (int i = 0; i < 2; ++i)
    subscribers[i] = std::thread(Subscribe, &cluster, i == 1, t0, &p.sub[i]);
  publisher.join();
  for (auto& t : subscribers) t.join();
  p.wall_s = std::max(p.sub[0].last_s, p.sub[1].last_s);
  p.p50_ms = std::max(p.sub[0].p50_ms, p.sub[1].p50_ms);
  p.p99_ms = std::max(p.sub[0].p99_ms, p.sub[1].p99_ms);
  p.rss_mb = PeakRssMiB();
  for (const auto& topic : cluster.topics())
    if (topic.rfind(mq::kRecordTopicPrefix, 0) == 0)
      p.log_mb += double(cluster.RetainedBytes(topic, 0)) / (1024.0 * 1024.0);
  p.max_open_files = stream->max_open_files();
  p.delivered = p.sub[0].out.records + p.sub[1].out.records;
  p.ok = published && p.sub[0].ok && p.sub[1].ok;
  if (sampler) sampler->StopInto(*layer);
  if (layer != nullptr) RunCodecPass(cluster, *layer, outcome);
  return p;
}

}  // namespace

Outcome RunFanout(const Config& config, const Inputs& in) {
  Outcome o;
  const StreamRef* refs[2] = {&in.archive_ref, &in.filtered_ref};
  const uint64_t records = in.archive_ref.records;
  std::vector<double> rss;
  double traced_attached = 0.0;  // subscriber-seconds of traced passes
  size_t max_open = 0;
  std::map<std::string, double> layer;  // traced-pass accumulators
  const Rates rates = RunPasses(
      config, o,
      [&](int n, bool traced) {
        const Pass p = RunPass(in.archive, records, false,
                               traced ? &layer : nullptr, o);
        for (int i = 0; i < 2; ++i) {
          const StreamRef& ref = *refs[i];
          const StreamRef& got = p.sub[i].out;
          o.Check(p.ok && got.records == ref.records && got.elems == ref.elems &&
                      got.digest == ref.digest,
                  ref.records,
                  std::string("fanout pass ") + std::to_string(n) +
                      (i == 0 ? " unfiltered" : " filtered") + " subscriber: " +
                      std::to_string(got.records) + " records / " +
                      std::to_string(got.elems) + " elems / digest " +
                      Hex(got.digest) + " vs direct BgpStream " +
                      std::to_string(ref.records) + " / " +
                      std::to_string(ref.elems) + " / " + Hex(ref.digest));
        }
        if (traced) {
          for (const auto& sub : p.sub) traced_attached += sub.last_s - sub.first_s;
          max_open = std::max(max_open, p.max_open_files);
        } else {
          rss.push_back(p.rss_mb);
        }
        // The memory metric is the retained log, the fan-out tier's own
        // footprint: process RSS follows how far the subscribers lag the
        // publisher (their pending queues hold decoded records), which
        // the host's timing decides.
        return PassResult{double(p.delivered) / p.wall_s, p.p50_ms, p.p99_ms,
                          p.log_mb};
      },
      [&] {
        const Pass p = RunPass(in.archive, records, true, nullptr, o);
        o.Check(p.ok, 1, "fanout set-up: no record reached the log");
        return p.setup_s;
      });
  o.notes.push_back("fanout: per pass 2 subscribers receive " +
                    std::to_string(records) + " records each (" +
                    std::to_string(in.archive_ref.elems) + " / " +
                    std::to_string(in.filtered_ref.elems) + " elems)");
  if (!config.trace) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "fanout: peak_rss_mb is the retained mq log (MiB); process "
                  "peak RSS per pass: median %.1f MiB, range %.1f-%.1f",
                  Median(rss), *std::min_element(rss.begin(), rss.end()),
                  *std::max_element(rss.begin(), rss.end()));
    o.notes.push_back(buf);
    return o;
  }
  auto& v = o.values;
  const double passes = double(rates.traced_passes);
  AddSpanMetrics(passes, v);
  RunLayerPasses(in.archive, v);
  v["stream.max_open_files"] = double(max_open);
  // The codec pass ran once per traced pass; the sampler counters add up.
  for (const char* name : {"mq.encode_s", "mq.decode_s", "mq.bytes_published",
                           "publisher.batches", "executor.tasks_run",
                           "executor.dispatch_rounds", "tenant.reclaims"})
    v[name] = layer[name] / passes;
  for (const char* name :
       {"governor.max_in_use", "governor.waiting_max", "tenant.queue_depth_max"})
    v[name] = layer[name];
  if (v["stream.file_opens"] != double(in.archive.paths.size()))
    o.Fail("fanout: the publisher opened " + std::to_string(v["stream.file_opens"]) +
           " files per pass, the window has " +
           std::to_string(in.archive.paths.size()));
  // Each subscriber thread blocks its own result: their spans (poll
  // waits nested in NextRecord) against the time they were attached.
  v["attribution_gap"] =
      1.0 - (trace::Total("subscriber.next_record") +
             trace::Total("subscriber.elems")) /
                traced_attached;
  o.notes.push_back(
      "fanout: stream.next_record_s, stream.elems_s, stream.merge_self_s and "
      "stream.next_record_p99_us are 0: RecordPublisher::Run calls NextRecord "
      "and Elems inside the library, where the benchmark cannot time them");
  FinishTrace(config, rates,
              2.0 * double(records) / double(in.archive.end - in.archive.start),
              o);
  return o;
}

}  // namespace perfbench
