// bgpsim — scenario-driven MRT archive generator.
//
// Runs the discrete-event simulator (sim/corpus.hpp) for a named
// scenario and leaves a RouteViews/RIS-style archive of real MRT files
// on disk, ready for bgpreader / the Broker / the StreamPool:
//     bgpsim -o /tmp/archive -s hijack --seed 7
//     bgpreader -d /tmp/archive -w 1451606400,1451613600
// Generation is deterministic: the same seed and knobs reproduce the
// archive byte for byte (the property the round-trip tests pin down).
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "sim/corpus.hpp"
#include "util/time.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fputs(R"(usage: bgpsim -o DIR [options]

output:
  -o DIR          archive root to (re)generate; wiped first

scenario:
  -s NAME         scenario (default: mixed); one of
                  baseline | flap | hijack | leak | outage |
                  reset-storm | rtbh | mixed
  --list          print the scenario names and exit
  --seed N        RNG seed (default 1); same seed and knobs reproduce
                  the archive byte for byte
  --start T       UNIX-time start of the simulated window
                  (default 1451606400 = 2016-01-01T00:00:00Z)
  --duration S    simulated seconds (default 7200)
  --flaps-per-hour N
                  background churn rate across the table (default 2000,
                  at most 1e6)

scale:
  --rv N          RouteViews-style collectors: 2h RIBs, 15min updates
                  (default 1)
  --ris N         RIS-style collectors: 8h RIBs, 5min updates, state
                  messages (default 1)
  --vps N         vantage points per collector (default 5)
  --transits N    transit ASes in the topology (default 12)
  --stubs N       stub ASes in the topology (default 40)

encoding:
  --two-byte-asn  write BGP4MP MESSAGE/STATE_CHANGE records with 2-byte
                  ASNs (wider ASNs become AS_TRANS 23456) instead of the
                  default _AS4 subtypes; RIB attributes stay 4-byte per
                  RFC 6396
)",
             stderr);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr size_t kMaxTime = std::numeric_limits<Timestamp>::max();
  constexpr size_t kMaxInt = std::numeric_limits<int>::max();
  std::string out_dir;
  sim::CorpusOptions options;
  options.start = 1451606400;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgpsim: %s\n", msg.c_str());
    Usage();
    return 1;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // The flag's value as a whole non-negative count (ParseCountFlag)
    // that fits the field it is stored in.
    auto need_count = [&](const char* missing,
                          size_t max = SIZE_MAX) -> Result<size_t> {
      const char* v = need_value();
      if (!v) return InvalidArgument(missing);
      return ParseCountFlag(arg, v, max);
    };
    if (arg == "-o") {
      const char* v = need_value();
      if (!v) return fail("-o needs a directory");
      out_dir = v;
    } else if (arg == "-s") {
      const char* v = need_value();
      if (!v) return fail("-s needs a scenario name");
      options.scenario = v;
    } else if (arg == "--list") {
      for (const auto& n : sim::CorpusScenarioNames())
        std::printf("%s\n", n.c_str());
      return 0;
    } else if (arg == "--seed") {
      Result<size_t> n = need_count("--seed needs a number");
      if (!n.ok()) return fail(n.status().message());
      options.seed = *n;
    } else if (arg == "--start") {
      Result<size_t> n = need_count("--start needs a UNIX time", kMaxTime);
      if (!n.ok()) return fail(n.status().message());
      options.start = Timestamp(*n);
      if (options.start == 0) return fail("--start must be > 0");
    } else if (arg == "--duration") {
      Result<size_t> n = need_count("--duration needs seconds", kMaxTime);
      if (!n.ok()) return fail(n.status().message());
      options.duration = Timestamp(*n);
      if (options.duration == 0) return fail("--duration must be > 0");
    } else if (arg == "--flaps-per-hour") {
      const char* v = need_value();
      if (!v) return fail("--flaps-per-hour needs a rate");
      // At most 1e6 (a flap every 3.6 ms on average): the generator
      // queues two events per flap up front, and far larger rates give
      // gaps below the resolution of the double that accumulates event
      // times, so it queues events without end.
      Result<double> r = ParseRealFlag(arg, v, /*allow_zero=*/true,
                                       /*unit=*/{}, /*max=*/1e6);
      if (!r.ok()) return fail(r.status().message());
      options.flaps_per_hour = *r;
    } else if (arg == "--rv") {
      Result<size_t> n = need_count("--rv needs a count", kMaxInt);
      if (!n.ok()) return fail(n.status().message());
      options.rv_collectors = int(*n);
    } else if (arg == "--ris") {
      Result<size_t> n = need_count("--ris needs a count", kMaxInt);
      if (!n.ok()) return fail(n.status().message());
      options.ris_collectors = int(*n);
    } else if (arg == "--vps") {
      Result<size_t> n = need_count("--vps needs a count", kMaxInt);
      if (!n.ok()) return fail(n.status().message());
      options.vps_per_collector = int(*n);
      if (options.vps_per_collector == 0) return fail("--vps must be > 0");
    } else if (arg == "--transits") {
      Result<size_t> n = need_count("--transits needs a count", kMaxInt);
      if (!n.ok()) return fail(n.status().message());
      options.topo.num_transit = int(*n);
      if (options.topo.num_transit == 0) return fail("--transits must be > 0");
    } else if (arg == "--stubs") {
      Result<size_t> n = need_count("--stubs needs a count", kMaxInt);
      if (!n.ok()) return fail(n.status().message());
      options.topo.num_stub = int(*n);
      if (options.topo.num_stub == 0) return fail("--stubs must be > 0");
    } else if (arg == "--two-byte-asn") {
      options.asn_encoding = bgp::AsnEncoding::TwoByte;
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else {
      return fail("unknown option " + arg);
    }
  }

  if (out_dir.empty()) return fail("-o is required");
  if (options.rv_collectors == 0 && options.ris_collectors == 0)
    return fail("need at least one collector (--rv / --ris)");

  auto stats = sim::GenerateCorpus(options, out_dir);
  if (!stats.ok()) return fail(stats.status().ToString());

  std::fprintf(stderr,
               "bgpsim: %s scenario, window [%lld, %lld): %zu MRT files "
               "(%zu RIB dumps, %zu updates dumps, %zu update messages) "
               "in %s\n",
               options.scenario.c_str(), (long long)stats->start,
               (long long)stats->end, stats->files, stats->rib_dumps,
               stats->updates_dumps, stats->update_messages, out_dir.c_str());
  return 0;
}
