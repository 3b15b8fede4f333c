#include "util.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak RSS (VmHWM) to the current RSS (Linux >= 4.0).
  // Without it the reading is the process-lifetime peak, which only
  // makes every pass report the largest one.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Digest::AddString(std::string_view s) {
  Add(s.size());
  uint64_t word = 0;
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::memcpy(&word, s.data() + i, 8);
    Add(word);
  }
  word = 0;
  std::memcpy(&word, s.data() + i, s.size() - i);
  Add(word);
}

void Digest::AddIp(const bgps::IpAddress& ip) {
  uint64_t lo = 0, hi = 0;
  std::memcpy(&lo, ip.bytes().data(), 8);
  std::memcpy(&hi, ip.bytes().data() + 8, 8);
  Add(uint64_t(ip.family()));
  Add(lo);
  Add(hi);
}

void Digest::AddPath(const bgps::bgp::AsPath& path) {
  Add(path.segments().size());
  for (const auto& seg : path.segments()) {
    Add((uint64_t(seg.type) << 32) | seg.asns.size());
    for (bgps::bgp::Asn asn : seg.asns) Add(asn);
  }
}

void Digest::AddCommunities(const bgps::bgp::Communities& cs) {
  Add(cs.size());
  for (const auto& c : cs) Add(c.raw());
}

void Digest::AddRecord(const bgps::core::Record& rec) {
  AddString(rec.project.str());
  AddString(rec.collector.str());
  Add((uint64_t(rec.dump_type) << 16) | (uint64_t(rec.status) << 8) |
      uint64_t(rec.position));
  Add(uint64_t(rec.dump_time));
  Add(uint64_t(rec.timestamp));
}

void Digest::AddRecordContent(const bgps::core::Record& rec) {
  AddString(rec.project.str());
  AddString(rec.collector.str());
  Add((uint64_t(rec.dump_type) << 16) | (uint64_t(rec.status) << 8));
  Add(uint64_t(rec.timestamp));
}

void Digest::AddElem(const bgps::core::Elem& e) {
  Add((uint64_t(e.type) << 32) | e.peer_asn);
  Add(uint64_t(e.time));
  AddIp(e.peer_address);
  AddIp(e.prefix.address());
  Add(uint64_t(e.prefix.length()));
  AddIp(e.next_hop);
  AddPath(e.as_path);
  AddCommunities(e.communities);
  Add((uint64_t(e.old_state) << 16) | uint64_t(e.new_state));
}

void Digest::AddDiffs(bgps::Timestamp bin_start,
                      const std::vector<bgps::corsaro::DiffCell>& diffs) {
  Add(uint64_t(bin_start));
  Add(diffs.size());
  for (const auto& d : diffs) {
    AddString(d.vp.collector);
    Add(d.vp.peer);
    AddIp(d.prefix.address());
    Add(uint64_t(d.prefix.length()));
    AddPath(d.cell.as_path);
    AddCommunities(d.cell.communities);
    Add(uint64_t(d.cell.last_modified));
    Add(d.cell.announced ? 1 : 0);
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

}  // namespace perfbench
