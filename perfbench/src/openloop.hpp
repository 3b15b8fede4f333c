// Open-loop load arithmetic of the live workload: when each frame is
// due, how late the generator offered it, how long its record took to
// reach the consumer, and which percentiles the sample supports.
//
// The generator offers frame i at start + i / rate whatever the system
// does, so a stall delays every later frame's record and shows in the
// latency of all of them (time is counted from the due time, not from
// the moment the generator got round to sending).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench::openloop {

// Due time, in seconds, of frame `i` offered at `rate` frames/s from
// `start`.
inline double DueTime(double start, size_t i, double rate) {
  return start + double(i) / rate;
}

// Milliseconds from a frame's due time to its record's delivery. Never
// negative for a real delivery (a record cannot precede its frame's
// offer, which is at or after the due time).
inline double LatencyMs(double due, double delivered) {
  return (delivered - due) * 1e3;
}

// Milliseconds the generator ran behind the schedule when it offered a
// frame; an offer at or before the due time is on time.
inline double LatenessMs(double due, double offered) {
  return std::max(0.0, (offered - due) * 1e3);
}

// Maps each emitted record to the frame that produced it, given how
// many records each frame produced in ingestion order (a BMP
// Initiation frame produces none, a Route Monitoring frame one).
inline std::vector<uint32_t> RecordFrames(
    const std::vector<uint8_t>& records_per_frame) {
  std::vector<uint32_t> out;
  for (size_t f = 0; f < records_per_frame.size(); ++f)
    for (uint8_t k = 0; k < records_per_frame[f]; ++k)
      out.push_back(uint32_t(f));
  return out;
}

struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  // samples ranked above the percentile
  // A percentile is reported only with at least ten samples beyond it.
  bool supported() const { return beyond >= 10; }
};

// Nearest-rank percentile `q` (0 < q <= 100) of `v`.
inline Percentile NearestRank(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  size_t rank = size_t(std::ceil(q / 100.0 * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

}  // namespace perfbench::openloop
