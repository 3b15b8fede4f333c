// rib-rt: bgpcorsaro -x rt:shards=3. The synthetic RIB archive (a RIB
// dump, four churn windows and a closing RIB over >= 16 VPs) runs
// through BgpCorsaro with 900 s bins; RoutingTables applies 3 shards on
// a 3-worker core::Executor and a callback consumes the diffs.
// TABLE_DUMP_V2 decode, RT apply and the bin-end diff merge dominate;
// multi-file merge, filters and the StreamPool are absent.
#include "core/executor.hpp"
#include "core/stream.hpp"
#include "corsaro/corsaro.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;

namespace {

// Forwards every plugin call to the RoutingTables it owns, timing
// record delivery to the plugin and opening the rt.* spans.
class RtForward : public corsaro::Plugin {
 public:
  RtForward(std::unique_ptr<corsaro::RoutingTables> inner,
            RecordLatency* latency)
      : inner_(std::move(inner)), latency_(latency) {}
  std::string_view name() const override { return inner_->name(); }
  void OnRecord(corsaro::RecordContext& ctx) override {
    latency_->Got(records_);
    {
      trace::Span span("rt.on_record");
      inner_->OnRecord(ctx);
    }
    latency_->Ask(++records_);
  }
  void OnBinStart(Timestamp bin_start) override {
    inner_->OnBinStart(bin_start);
  }
  void OnBinEnd(Timestamp bin_start, Timestamp bin_end) override {
    trace::Span span("rt.bin_end");
    inner_->OnBinEnd(bin_start, bin_end);
  }
  void OnFinish() override {
    trace::Span span("rt.finish");
    inner_->OnFinish();
  }

 private:
  std::unique_ptr<corsaro::RoutingTables> inner_;
  RecordLatency* latency_;
  uint64_t records_ = 0;
};

struct Pass {
  bool ok = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mb = 0.0;
  double shard_skew = 0.0;
  size_t max_open_files = 0;
  size_t tasks_run = 0;        // by the shard executor, over the pass
  size_t dispatch_rounds = 0;  // likewise
  RtRef out;
};

// One bgpcorsaro pass. With `setup_only` it stops after the first
// record reached the RT plugin.
Pass RunPass(const Archive& a, bool setup_only) {
  Pass p;
  if (!setup_only) ResetPeakRss();  // a set-up-only pass keeps the warm heap
  const double t0 = Now();
  // Declared before the engine: the engine owns the plugin, whose shard
  // strands run on this executor.
  core::Executor executor(core::Executor::Options{.threads = kRtThreads});
  broker::Broker broker(a.root);
  core::BrokerDataInterface broker_di(&broker);
  TimedDataInterface di(&broker_di);
  core::BgpStream::Options options;
  options.file_open_hook = FileOpenSpan;
  core::BgpStream stream(std::move(options));
  stream.SetInterval(a.start, a.end);
  stream.SetDataInterface(&di);
  if (!stream.Start().ok()) return p;
  corsaro::BgpCorsaro engine(&stream, kRtBinSeconds);
  corsaro::RoutingTables::Options rt_options;
  rt_options.shards = kRtShards;
  rt_options.executor = &executor;
  auto rt = std::make_unique<corsaro::RoutingTables>(rt_options);
  corsaro::RoutingTables* rt_ptr = rt.get();
  Digest digest;
  rt->set_diff_callback(
      [&](Timestamp bin, const std::vector<corsaro::DiffCell>& diffs) {
        digest.AddDiffs(bin, diffs);
        p.out.diff_cells += diffs.size();
      });
  RecordLatency latency(t0);
  engine.AddPlugin(std::make_unique<RtForward>(std::move(rt), &latency));
  latency.Ask(0);
  if (setup_only) {
    engine.Step(1);
    p.setup_s = latency.first_s();
    p.ok = true;
    return p;
  }
  const size_t tasks0 = executor.tasks_run();
  const size_t rounds0 = executor.dispatch_rounds();
  p.out.records = engine.Run();
  p.wall_s = Now() - t0;
  p.tasks_run = executor.tasks_run() - tasks0;
  p.dispatch_rounds = executor.dispatch_rounds() - rounds0;
  p.setup_s = latency.first_s();
  p.p50_ms = latency.p50_ms();
  p.p99_ms = latency.p99_ms();
  p.rss_mb = PeakRssMiB();
  p.max_open_files = stream.max_open_files();
  p.out.bins = rt_ptr->bin_stats().size();
  p.out.rib_mismatches = rt_ptr->rib_mismatches();
  p.out.digest = digest.value();
  size_t max_applied = 0, sum_applied = 0;
  const auto shards = rt_ptr->shard_stats();
  for (const auto& s : shards) {
    max_applied = std::max(max_applied, s.applied_elems);
    sum_applied += s.applied_elems;
  }
  if (sum_applied > 0)
    p.shard_skew = double(max_applied) * double(shards.size()) / double(sum_applied);
  p.ok = stream.status().ok();
  return p;
}

}  // namespace

Outcome RunRibRt(const Config& config, const Inputs& in) {
  Outcome o;
  const RtRef& ref = in.rib_ref;
  std::vector<double> skew;
  double traced_wall = 0.0, tasks = 0.0, rounds = 0.0;
  size_t max_open = 0;
  RtRef traced_out;
  const Rates rates = RunPasses(
      config, o,
      [&](int n, bool traced) {
        const Pass p = RunPass(in.rib, false);
        o.Check(p.ok && p.out.records == ref.records && p.out.bins == ref.bins &&
                    p.out.diff_cells == ref.diff_cells &&
                    p.out.rib_mismatches == ref.rib_mismatches &&
                    p.out.digest == ref.digest,
                ref.records,
                "rib-rt pass " + std::to_string(n) + ": " +
                    std::to_string(p.out.diff_cells) + " diff cells / " +
                    std::to_string(p.out.rib_mismatches) +
                    " RIB mismatches / digest " + Hex(p.out.digest) +
                    " vs one shard " + std::to_string(ref.diff_cells) + " / " +
                    std::to_string(ref.rib_mismatches) + " / " + Hex(ref.digest));
        if (traced) {
          traced_wall += p.wall_s;
          skew.push_back(p.shard_skew);
          max_open = std::max(max_open, p.max_open_files);
          tasks += double(p.tasks_run);
          rounds += double(p.dispatch_rounds);
          traced_out = p.out;
        }
        return PassResult{double(p.out.records) / p.wall_s, p.p50_ms, p.p99_ms,
                          p.rss_mb};
      },
      [&] { return RunPass(in.rib, true).setup_s; });
  o.notes.push_back("rib-rt: per pass " + std::to_string(ref.records) +
                    " records -> " + std::to_string(ref.diff_cells) +
                    " diff cells in " + std::to_string(ref.bins) + " bins, " +
                    std::to_string(kRtShards) + " shards on " +
                    std::to_string(kRtThreads) + " workers");
  if (!config.trace) return o;
  auto& v = o.values;
  const double passes = double(rates.traced_passes);
  AddSpanMetrics(passes, v);
  RunLayerPasses(in.rib, v);
  v["rt.bins"] = double(traced_out.bins);
  v["rt.diff_cells"] = double(traced_out.diff_cells);
  v["rt.rib_mismatches"] = double(traced_out.rib_mismatches);
  v["rt.shard_skew"] = Median(skew);
  v["stream.max_open_files"] = double(max_open);
  v["executor.tasks_run"] = tasks / passes;
  v["executor.dispatch_rounds"] = rounds / passes;
  // BgpCorsaro::Run pulls records itself, so NextRecord and Elems are not
  // observable here; the ledger adds up the separately timed decode
  // layers and the spans around the RT plugin against the pass wall.
  v["attribution_gap"] =
      1.0 - (v["broker.next_batch_s"] + v["mrt.frame_s"] + v["mrt.decode_s"] +
             v["core.extract_s"] + v["rt.on_record_s"] + v["rt.bin_end_s"]) /
                (traced_wall / passes);
  o.notes.push_back(
      "rib-rt: stream.next_record_s, stream.elems_s, stream.merge_self_s and "
      "stream.next_record_p99_us are 0: BgpCorsaro::Run calls NextRecord and "
      "Elems inside the library, where the benchmark cannot time them");
  o.notes.push_back(
      "rib-rt: governor.* and tenant.* are 0: no MemoryGovernor or StreamPool "
      "tenant runs here (the shard strands are core::Executor tenants, whose "
      "queues the library does not expose); executor.* are the shard "
      "executor's own counters");
  FinishTrace(config, rates,
              double(ref.records) / double(in.rib.end - in.rib.start), o);
  return o;
}

}  // namespace perfbench
