// perfbench — the repository benchmark program.
//
//   perfbench prepare --workload W --seed N --cache DIR [--scale S]
//   perfbench run --workload W --seed N --seconds T --trace 0|1
//                 --cache DIR [--scale S]
//
// `prepare` generates (or finds cached) the workload's seeded inputs and
// their sequential-path reference digests, and prints how long that
// took. `run` measures the workload for T seconds and prints its notes,
// then one JSON line with every measured value. run.py drives both, in
// separate processes, so generation never shares a process (or its
// peak RSS) with a measurement, and formats the result with the units
// BENCHMARK.json declares.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench prepare|run --workload "
               "archive-sync|rib-rt|fanout|live --seed N --cache DIR\n"
               "                 [--seconds T] [--trace 0|1] [--scale full|tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  if (command != "prepare" && command != "run") return Usage("unknown command");
  Config config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--cache") {
      config.cache_dir = value;
    } else if (arg == "--scale") {
      config.scale = value;
    } else {
      return Usage(("unknown option " + arg).c_str());
    }
  }
  Outcome (*run)(const Config&, const Inputs&) = nullptr;
  if (config.workload == "archive-sync") run = RunArchiveSync;
  if (config.workload == "rib-rt") run = RunRibRt;
  if (config.workload == "fanout") run = RunFanout;
  if (config.workload == "live") run = RunLive;
  if (run == nullptr) return Usage("unknown --workload");
  if (config.cache_dir.empty()) return Usage("--cache is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be > 0");

  auto scale = ScaleFor(config.scale, config.seed);
  if (!scale.ok()) return Usage(scale.status().ToString().c_str());
  auto inputs = EnsureInputs(config.workload, config.cache_dir, *scale, config.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: inputs: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  if (command == "prepare") {
    std::printf("# %s seed=%llu inputs ready: generation %.3f s, sequential "
                "references %.3f s (untimed, outside every metric)\n",
                config.workload.c_str(), (unsigned long long)config.seed,
                inputs->generate_s, inputs->reference_s);
    return 0;
  }
  // Read every input once, untimed, before timing starts.
  if (!inputs->archive.root.empty()) WarmArchive(inputs->archive);
  if (!inputs->rib.root.empty()) WarmArchive(inputs->rib);
  Outcome outcome = run(config, *inputs);
  PrintResult(config, outcome);
  return 0;
}
