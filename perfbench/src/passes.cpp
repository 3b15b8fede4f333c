// The pass loop every workload runs, and the program's result line.
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

Rates RunPasses(const Config& config, Outcome& outcome,
                const std::function<PassResult(int, bool)>& pass,
                const std::function<double()>& setup) {
  std::vector<double> rate, p50, p99, rss, setups, traced_rate;
  const double deadline = Now() + config.seconds;
  for (int n = 0;; ++n) {
    const bool traced = config.trace && n % 2 == 1;
    if (Now() >= deadline && int(rate.size()) >= kMinPasses &&
        (!config.trace || int(traced_rate.size()) >= kMinPasses))
      break;
    trace::SetRun(uint32_t(n));
    trace::SetEnabled(traced);
    const PassResult r = pass(n, traced);
    trace::SetEnabled(false);
    if (traced) {
      traced_rate.push_back(r.records_per_s);
      continue;
    }
    rate.push_back(r.records_per_s);
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
    rss.push_back(r.rss_mb);
    for (int i = 0; i < kSetupReps && !config.trace; ++i) setups.push_back(setup());
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s: %zu untraced and %zu traced passes",
                config.workload.c_str(), rate.size(), traced_rate.size());
  outcome.notes.push_back(buf);
  if (!setups.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "%s: %zu set-ups, quartiles %.3g / %.3g / %.3g s",
                  config.workload.c_str(), setups.size(),
                  openloop::NearestRank(setups, 25).value,
                  openloop::NearestRank(setups, 50).value,
                  openloop::NearestRank(setups, 75).value);
    outcome.notes.push_back(buf);
  }
  if (!config.trace) {
    outcome.values["records_per_s"] = Median(rate);
    outcome.values["latency_p50_ms"] = Median(p50);
    outcome.values["latency_p99_ms"] = Median(p99);
    outcome.values["setup_s"] = Median(setups);
    outcome.values["peak_rss_mb"] = Median(rss);
  }
  return {Median(rate), Median(traced_rate), traced_rate.size()};
}

void PrintResult(const Config& config, const Outcome& outcome) {
  for (const auto& note : outcome.notes) std::printf("# %s\n", note.c_str());
  std::printf("# %s seed=%llu %s run: %llu operations attempted, %llu failed\n",
              config.workload.c_str(), (unsigned long long)config.seed,
              config.trace ? "traced" : "untraced",
              (unsigned long long)outcome.attempted,
              (unsigned long long)outcome.failed);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"values\": {",
              outcome.correct && outcome.failed == 0 ? "true" : "false",
              (unsigned long long)outcome.attempted,
              (unsigned long long)outcome.failed);
  const char* sep = "";
  for (const auto& [name, value] : outcome.values) {
    if (std::isfinite(value)) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    } else {
      std::printf("%s\"%s\": null", sep, name.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
