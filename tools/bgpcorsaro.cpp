// bgpcorsaro — command-line BGPCorsaro runner (paper §6.1).
//
// Drives a plugin pipeline over an archive in regular time bins:
//     bgpcorsaro -d ARCHIVE -w START,END -b 300 -x moas -x rt
//     bgpcorsaro -d ARCHIVE -w START,END -x pfxmonitor:193.206.0.0/16
// Each plugin prints its per-bin output; `rt` reports per-bin elem/diff
// counts (the Fig. 9 quantities) plus final accuracy counters.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>

#include "core/executor.hpp"
#include "corsaro/corsaro.hpp"
#include "corsaro/moas.hpp"
#include "corsaro/pfxmonitor.hpp"
#include "corsaro/rt.hpp"
#include "util/strings.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fprintf(stderr, R"(usage: bgpcorsaro -d ARCHIVE -w START,END [options]

  -d DIR          archive root (Broker layout)
  -w START,END    UNIX-time window
  -b SECONDS      bin size (default 300)
  -c COLLECTOR    collector filter (repeatable)
  -x PLUGIN       plugin chain, in order (repeatable):
                    pfxmonitor:PFX[,PFX...]  monitor address ranges (Fig. 6)
                    moas                     live MOAS/hijack events
                    rt                       routing-tables plugin (Fig. 9)
                    rt:shards=N[,threads=M]  sharded RT apply on an M-thread
                                             pool (default 4); output is
                                             identical at any shard count
)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string archive;
  Timestamp start = 0, end = 0, bin = 300;
  core::BgpStream stream;
  std::vector<std::string> plugin_specs;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgpcorsaro: %s\n", msg.c_str());
    Usage();
    return 1;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "-d") {
      const char* v = need_value();
      if (!v) return fail("-d needs a directory");
      archive = v;
    } else if (arg == "-w") {
      const char* v = need_value();
      if (!v) return fail("-w needs START,END");
      Result<TimeInterval> window = ParseTimeWindow(v);
      if (!window.ok()) return fail("-w " + window.status().message());
      if (window->live()) return fail("-w needs START,END");
      start = window->start;
      end = window->end;
    } else if (arg == "-b") {
      const char* v = need_value();
      if (!v) return fail("-b needs seconds");
      Result<size_t> n = ParseCountFlag(arg, v);
      if (!n.ok()) return fail(n.status().message());
      if (*n == 0) return fail("-b must be >= 1");
      if (*n > size_t(std::numeric_limits<Timestamp>::max()))
        return fail("-b is out of range");
      bin = Timestamp(*n);
    } else if (arg == "-c") {
      const char* v = need_value();
      if (!v) return fail("-c needs a collector");
      if (Status st = stream.AddFilter("collector", v); !st.ok())
        return fail(st.ToString());
    } else if (arg == "-x") {
      const char* v = need_value();
      if (!v) return fail("-x needs a plugin spec");
      plugin_specs.push_back(v);
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else {
      return fail("unknown option " + arg);
    }
  }
  if (archive.empty() || end <= start)
    return fail("-d and a valid -w START,END are required");
  if (plugin_specs.empty()) plugin_specs.push_back("rt");

  // Declared before the engine: the engine owns the plugins, so it (and
  // the sharded RT plugin's strands) must be destroyed before the pool.
  std::unique_ptr<core::Executor> executor;
  corsaro::BgpCorsaro engine(&stream, bin);
  corsaro::RoutingTables* rt_plugin = nullptr;

  for (const auto& spec : plugin_specs) {
    size_t colon = spec.find(':');
    std::string name = spec.substr(0, colon);
    std::string args =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (name == "pfxmonitor") {
      std::vector<Prefix> ranges;
      for (const auto& tok : SplitSkipEmpty(args, ',')) {
        auto p = Prefix::Parse(tok);
        if (!p.ok()) return fail("bad pfxmonitor prefix: " + tok);
        ranges.push_back(*p);
      }
      if (ranges.empty()) return fail("pfxmonitor needs prefixes");
      engine.AddPlugin(std::make_unique<corsaro::PfxMonitor>(
          ranges, [](const corsaro::PfxMonitor::BinRow& row) {
            std::printf("pfxmonitor|%lld|%zu|%zu\n",
                        (long long)row.bin_start, row.unique_prefixes,
                        row.unique_origins);
          }));
    } else if (name == "moas") {
      engine.AddPlugin(std::make_unique<corsaro::MoasDetector>(
          [](const corsaro::MoasEvent& ev) {
            std::string origins;
            for (bgp::Asn asn : ev.origins) {
              if (!origins.empty()) origins += ' ';
              origins += std::to_string(asn);
            }
            std::printf("moas|%lld|%s|%s|%s\n", (long long)ev.time,
                        ev.started ? "START" : "END",
                        ev.prefix.ToString().c_str(), origins.c_str());
          }));
    } else if (name == "rt") {
      corsaro::RoutingTables::Options rt_opt;
      size_t pool_threads = 4;
      for (const auto& tok : SplitSkipEmpty(args, ',')) {
        if (tok.rfind("shards=", 0) == 0) {
          Result<size_t> n = ParseCountFlag("rt shards", tok.substr(7));
          if (!n.ok()) return fail(n.status().message());
          rt_opt.shards = *n;
          if (rt_opt.shards == 0) return fail("rt shards must be >= 1");
        } else if (tok.rfind("threads=", 0) == 0) {
          Result<size_t> n = ParseCountFlag("rt threads", tok.substr(8));
          if (!n.ok()) return fail(n.status().message());
          pool_threads = *n;
          if (pool_threads == 0) return fail("rt threads must be >= 1");
        } else {
          return fail("unknown rt option: " + tok);
        }
      }
      if (rt_opt.shards > 1) {
        if (!executor)
          executor = std::make_unique<core::Executor>(
              core::Executor::Options{.threads = pool_threads});
        rt_opt.executor = executor.get();
      }
      auto rt = std::make_unique<corsaro::RoutingTables>(rt_opt);
      rt_plugin = rt.get();
      rt->set_diff_callback(
          [](Timestamp bin_start, const std::vector<corsaro::DiffCell>& diffs) {
            std::printf("rt|%lld|diff-cells=%zu\n", (long long)bin_start,
                        diffs.size());
          });
      engine.AddPlugin(std::move(rt));
    } else {
      return fail("unknown plugin " + name);
    }
  }

  // Every flag and plugin spec is checked before the archive is opened.
  broker::Broker broker(archive);
  if (!broker.scan_status().ok()) return fail(broker.scan_status().ToString());
  core::BrokerDataInterface di(&broker);
  stream.SetInterval(start, end);
  stream.SetDataInterface(&di);
  if (Status st = stream.Start(); !st.ok()) return fail(st.ToString());

  size_t records = engine.Run();
  std::fprintf(stderr, "bgpcorsaro: processed %zu records in %lld-second bins\n",
               records, (long long)bin);
  if (rt_plugin) {
    std::fprintf(stderr,
                 "bgpcorsaro: rt accuracy: %zu mismatches / %zu compared\n",
                 rt_plugin->rib_mismatches(), rt_plugin->rib_compared_prefixes());
    auto shard_stats = rt_plugin->shard_stats();
    if (shard_stats.size() > 1) {
      for (size_t i = 0; i < shard_stats.size(); ++i) {
        std::fprintf(stderr,
                     "bgpcorsaro: rt shard %zu: vps=%zu elems=%zu batches=%zu "
                     "apply_s=%.3f attr_sets=%zu\n",
                     i, shard_stats[i].vps, shard_stats[i].applied_elems,
                     shard_stats[i].batches, shard_stats[i].apply_s,
                     shard_stats[i].attr_sets);
      }
    }
  }
  return 0;
}
