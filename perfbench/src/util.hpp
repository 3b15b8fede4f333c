// Shared helpers of the benchmark program: wall clock, order statistics,
// per-pass peak RSS and the output digest every workload checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/record.hpp"
#include "corsaro/rt.hpp"

namespace perfbench {

// Monotonic wall clock in seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median of `v` (0 for an empty vector). Takes a copy: callers keep
// their samples in arrival order.
double Median(std::vector<double> v);

// Peak resident set size of this process, per pass: ResetPeakRss()
// returns freed heap to the kernel and restarts the kernel's high-water
// mark at the current RSS, so PeakRssMiB() after a pass reports that
// pass's peak rather than the process's.
void ResetPeakRss();
double PeakRssMiB();

// Order-sensitive 64-bit digest of the records, elems and RT diffs a
// consumer receives. Hashes every field the record-batch codec carries,
// so a reordered, lost, duplicated or altered record or elem changes it.
class Digest {
 public:
  void Add(uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
    h_ ^= h_ >> 33;
  }
  void AddString(std::string_view s);
  void AddRecord(const bgps::core::Record& rec);
  // AddRecord without dump_time and position: those describe the live
  // tier's micro-dump framing, which moves when ingestion parks on the
  // memory governor (a park flushes early), not the frames' content.
  void AddRecordContent(const bgps::core::Record& rec);
  void AddElem(const bgps::core::Elem& elem);
  void AddDiffs(bgps::Timestamp bin_start,
                const std::vector<bgps::corsaro::DiffCell>& diffs);
  uint64_t value() const { return h_; }

 private:
  void AddIp(const bgps::IpAddress& ip);
  void AddPath(const bgps::bgp::AsPath& path);
  void AddCommunities(const bgps::bgp::Communities& cs);

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v);

}  // namespace perfbench
