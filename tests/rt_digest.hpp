// Order-sensitive FNV-1a digest of RoutingTables output, shared by the
// golden pins in rt_sharded_test and the million-prefix stress test: at
// scale the tests fingerprint with a streaming hash instead of buffering
// millions of diff cells per run.
#pragma once

#include <cstdint>
#include <string>

#include "corsaro/rt.hpp"

namespace bgps::testutil {

struct RtDigest {
  uint64_t hash = 1469598103934665603ull;
  size_t diff_cells = 0;
  size_t bins = 0;

  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (b * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void MixStr(const std::string& s) {
    Mix(s.size());
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  }
  // Every field of the cell: VP, prefix, A/W flag, timestamp, each AS
  // path segment (type and members) and every community.
  void MixCell(const corsaro::DiffCell& d) {
    MixStr(d.vp.collector);
    Mix(d.vp.peer);
    MixStr(d.prefix.ToString());
    Mix(uint64_t(d.cell.last_modified));
    Mix(d.cell.announced ? 1 : 0);
    Mix(d.cell.as_path.segments().size());
    for (const auto& seg : d.cell.as_path.segments()) {
      Mix(uint64_t(seg.type));
      Mix(seg.asns.size());
      for (bgp::Asn asn : seg.asns) Mix(asn);
    }
    Mix(d.cell.communities.size());
    for (bgp::Community c : d.cell.communities) Mix(c.raw());
  }

  bool operator==(const RtDigest&) const = default;
};

}  // namespace bgps::testutil
