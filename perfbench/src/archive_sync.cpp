// archive-sync: bgpreader on the sequential oracle path. One
// synchronous BgpStream (no prefetch, no pool) reads the bgpsim mixed
// archive through Broker + BrokerDataInterface over the corpus's own
// window, and the consumer drains every record and elem. Decode, merge
// and elem extraction do all the work on one thread; the runtime layer
// does none, so scheduler and pool changes must not move this workload.
#include "core/stream.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;

namespace {

struct Pass {
  bool ok = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mb = 0.0;
  size_t max_open_files = 0;
  StreamRef out;
};

// One bgpreader pass. With `setup_only` it stops once the first record
// is in the consumer's hands.
Pass RunPass(const Archive& a, bool setup_only) {
  Pass p;
  if (!setup_only) ResetPeakRss();  // a set-up-only pass keeps the warm heap
  const double t0 = Now();
  broker::Broker broker(a.root);
  core::BrokerDataInterface broker_di(&broker);
  TimedDataInterface di(&broker_di);
  core::BgpStream::Options options;
  options.file_open_hook = FileOpenSpan;
  core::BgpStream stream(std::move(options));
  stream.SetInterval(a.start, a.end);
  stream.SetDataInterface(&di);
  if (!stream.Start().ok()) return p;
  RecordLatency latency(t0);
  p.out = Drain(
      stream, "stream.next_record", "stream.elems", false,
      [&](uint64_t n) {
        latency.Ask(n);
        return !setup_only || n == 0;
      },
      [&](uint64_t n) { latency.Got(n); });
  p.wall_s = Now() - t0;
  p.setup_s = latency.first_s();
  p.p50_ms = latency.p50_ms();
  p.p99_ms = latency.p99_ms();
  p.rss_mb = PeakRssMiB();
  p.max_open_files = stream.max_open_files();
  p.ok = stream.status().ok();
  return p;
}

}  // namespace

Outcome RunArchiveSync(const Config& config, const Inputs& in) {
  Outcome o;
  const StreamRef& ref = in.archive_ref;
  double traced_wall = 0.0;
  size_t max_open = 0;
  const Rates rates = RunPasses(
      config, o,
      [&](int n, bool traced) {
        const Pass p = RunPass(in.archive, false);
        o.Check(p.ok && p.out.records == ref.records && p.out.elems == ref.elems &&
                    p.out.digest == ref.digest,
                ref.records,
                "archive-sync pass " + std::to_string(n) + ": " +
                    std::to_string(p.out.records) + " records / digest " +
                    Hex(p.out.digest) + " vs sequential " +
                    std::to_string(ref.records) + " / " + Hex(ref.digest));
        if (traced) {
          traced_wall += p.wall_s;
          max_open = std::max(max_open, p.max_open_files);
        }
        return PassResult{double(p.out.records) / p.wall_s, p.p50_ms, p.p99_ms,
                          p.rss_mb};
      },
      [&] { return RunPass(in.archive, true).setup_s; });
  o.notes.push_back("archive-sync: per pass " + std::to_string(ref.records) +
                    " records / " + std::to_string(ref.elems) + " elems from " +
                    std::to_string(in.archive.paths.size()) + " files");
  if (!config.trace) return o;
  auto& v = o.values;
  AddSpanMetrics(double(rates.traced_passes), v);
  RunLayerPasses(in.archive, v);
  v["stream.max_open_files"] = double(max_open);
  v["stream.merge_self_s"] =
      v["stream.next_record_s"] - v["mrt.frame_s"] - v["mrt.decode_s"];
  // The consumer thread is the whole critical path: its top-level spans
  // (NextRecord, which nests NextBatch and the file opens, and Elems)
  // against the pass wall. The rest is the benchmark's own digest.
  v["attribution_gap"] =
      1.0 - (trace::Total("stream.next_record") + trace::Total("stream.elems")) /
                traced_wall;
  o.notes.push_back(
      "archive-sync: the runtime layer, RT, fan-out, live and generator "
      "metrics are 0: those layers do not run here");
  FinishTrace(config, rates,
              double(ref.records) / double(in.archive.end - in.archive.start), o);
  return o;
}

}  // namespace perfbench
