// Shared fixtures for the live ingestion tier's test layer
// (live_source_test, live_fault_test, live_replay_test and the stress
// variant): a scripted BMP session, an independent direct-decode
// baseline (re-deriving the frames -> MRT mapping without LiveSource,
// so the conformance tests compare two implementations, not one with
// itself), and stream-drain fingerprinting that includes dump_time and
// position — the live path must be *byte-identical* to the baseline,
// not merely equivalent.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bmp/bmp.hpp"
#include "broker/archive.hpp"
#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"

namespace bgps::livetest {

// (timestamp, collector, dump_type, status, position, dump_time):
// everything the record surface exposes besides the decoded body, which
// the elem fingerprint covers.
using RecordFp = std::tuple<Timestamp, std::string, int, int, int, Timestamp>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  Status status;
};

inline StreamRun Drain(core::BgpStream& stream) {
  StreamRun out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector,
                             int(rec->dump_type), int(rec->status),
                             int(rec->position), rec->dump_time);
    for (const auto& e : stream.Elems(*rec)) {
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
    }
  }
  out.status = stream.status();
  return out;
}

class VectorDataInterface : public core::DataInterface {
 public:
  explicit VectorDataInterface(std::vector<broker::DumpFileMeta> files)
      : files_(std::move(files)) {}
  core::DataBatch NextBatch(const core::FilterSet&) override {
    core::DataBatch batch;
    if (!served_) {
      batch.files = files_;
      served_ = true;
    } else {
      batch.end_of_stream = true;
    }
    return batch;
  }

 private:
  std::vector<broker::DumpFileMeta> files_;
  bool served_ = false;
};

inline Prefix Pfx(const std::string& s) { return *Prefix::Parse(s); }

inline bmp::PeerHeader LivePeer(const std::string& addr, uint32_t asn,
                                Timestamp ts) {
  bmp::PeerHeader ph;
  ph.peer_address = *IpAddress::Parse(addr);
  ph.peer_asn = asn;
  ph.peer_bgp_id = asn;
  ph.timestamp = ts;
  return ph;
}

// A deterministic two-peer BMP session: Initiation (no record), both
// peers come up (learning distinct local ASNs), interleaved
// announcements and a withdrawal, one peer goes down. Covers every
// record-producing message type plus the per-peer local-ASN state.
inline std::vector<bmp::BmpMessage> ScriptedBmpSession() {
  constexpr Timestamp kT0 = 1451606400;  // 2016-01-01T00:00:00Z
  std::vector<bmp::BmpMessage> frames;

  bmp::InfoTlvs init;
  init.type = bmp::MessageType::Initiation;
  init.sys_name = "edge-1";
  frames.push_back({init});

  bmp::PeerUp up1;
  up1.peer = LivePeer("10.0.0.1", 65001, kT0);
  up1.local_address = *IpAddress::Parse("192.0.2.1");
  up1.local_asn = 64512;
  frames.push_back({up1});

  bmp::PeerUp up2;
  up2.peer = LivePeer("10.0.0.2", 65002, kT0 + 1);
  up2.local_address = *IpAddress::Parse("192.0.2.1");
  up2.local_asn = 64513;
  frames.push_back({up2});

  bmp::RouteMonitoring rm1;
  rm1.peer = LivePeer("10.0.0.1", 65001, kT0 + 2);
  rm1.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 15169});
  rm1.update.attrs.next_hop = *IpAddress::Parse("10.0.0.1");
  rm1.update.attrs.communities = {bgp::Community(3356, 100)};
  rm1.update.announced = {Pfx("198.18.0.0/15"), Pfx("192.0.2.0/24")};
  frames.push_back({rm1});

  bmp::RouteMonitoring rm2;
  rm2.peer = LivePeer("10.0.0.2", 65002, kT0 + 3);
  rm2.update.attrs.as_path = bgp::AsPath::Sequence({65002, 174});
  rm2.update.attrs.next_hop = *IpAddress::Parse("10.0.0.2");
  rm2.update.announced = {Pfx("203.0.113.0/24")};
  frames.push_back({rm2});

  bmp::RouteMonitoring rm3;
  rm3.peer = LivePeer("10.0.0.1", 65001, kT0 + 4);
  rm3.update.withdrawn = {Pfx("192.0.2.0/24")};
  frames.push_back({rm3});

  bmp::PeerDown down2;
  down2.peer = LivePeer("10.0.0.2", 65002, kT0 + 5);
  down2.reason = bmp::PeerDownReason::RemoteNoNotification;
  frames.push_back({down2});

  bmp::RouteMonitoring rm4;
  rm4.peer = LivePeer("10.0.0.1", 65001, kT0 + 6);
  rm4.update.attrs.as_path = bgp::AsPath::Sequence({65001, 6939});
  rm4.update.attrs.next_hop = *IpAddress::Parse("10.0.0.1");
  rm4.update.announced = {Pfx("198.51.100.0/24")};
  frames.push_back({rm4});

  return frames;
}

inline Bytes EncodeSession(const std::vector<bmp::BmpMessage>& frames) {
  Bytes wire;
  for (const auto& f : frames) {
    Bytes b = bmp::Encode(f);
    wire.insert(wire.end(), b.begin(), b.end());
  }
  return wire;
}

// Independent reimplementation of the session -> MRT mapping (per-peer
// local-ASN learning included): what a direct decode of the same
// payloads produces. LiveSource's output must match this byte for byte.
inline std::vector<std::pair<Timestamp, Bytes>> DirectMrtRecords(
    const std::vector<bmp::BmpMessage>& frames) {
  std::map<std::pair<std::string, uint32_t>, uint32_t> local_asn;
  std::vector<std::pair<Timestamp, Bytes>> out;
  for (const auto& f : frames) {
    const bmp::PeerHeader* ph = nullptr;
    if (f.is_route_monitoring())
      ph = &std::get<bmp::RouteMonitoring>(f.body).peer;
    else if (f.is_peer_down())
      ph = &std::get<bmp::PeerDown>(f.body).peer;
    else if (f.is_peer_up())
      ph = &std::get<bmp::PeerUp>(f.body).peer;
    bgp::Asn hint = 0;
    if (ph != nullptr) {
      auto key = std::make_pair(ph->peer_address.ToString(),
                                uint32_t(ph->peer_asn));
      if (f.is_peer_up())
        local_asn[key] = uint32_t(std::get<bmp::PeerUp>(f.body).local_asn);
      auto it = local_asn.find(key);
      if (it != local_asn.end()) hint = it->second;
    }
    auto mrt_msg = bmp::ToMrt(f, hint);
    if (!mrt_msg) continue;
    Bytes encoded =
        mrt_msg->is_message()
            ? mrt::EncodeBgp4mpUpdate(
                  mrt_msg->timestamp,
                  std::get<mrt::Bgp4mpMessage>(mrt_msg->body))
            : mrt::EncodeBgp4mpStateChange(
                  mrt_msg->timestamp,
                  std::get<mrt::Bgp4mpStateChange>(mrt_msg->body));
    out.emplace_back(mrt_msg->timestamp, std::move(encoded));
  }
  return out;
}

// Writes the baseline records as one dump file with the same provenance
// a LiveSource micro-dump carries, so the two streams' records agree on
// every annotation (collector, dump_time, position).
inline broker::DumpFileMeta WriteBaselineDump(
    const std::vector<std::pair<Timestamp, Bytes>>& records,
    const std::string& path, const std::string& project = "live",
    const std::string& collector = "live") {
  mrt::MrtFileWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  Timestamp first = records.empty() ? 0 : records.front().first;
  Timestamp last = first;
  for (const auto& [ts, encoded] : records) {
    if (ts < first) first = ts;
    if (ts > last) last = ts;
    EXPECT_TRUE(writer.Write(encoded).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  broker::DumpFileMeta meta;
  meta.project = project;
  meta.collector = collector;
  meta.type = broker::DumpType::Updates;
  meta.start = first;
  meta.duration = last - first;
  meta.publish_time = last;
  meta.path = path;
  return meta;
}

// Live-tenant stream options: a fast poll (the feed is usually already
// closed in tests) plus a poll cap as a hang backstop — a bug that
// never closes the feed fails the test instead of wedging ctest. Each
// empty poll of a LiveFeedInterface first waits up to 1 s for a
// publication, so the cap counts seconds.
inline core::BgpStream::Options LiveStreamOptions() {
  core::BgpStream::Options opt;
  opt.poll_wait = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  opt.max_consecutive_polls = 30;  // ~30 s of empty polls
  return opt;
}

}  // namespace bgps::livetest
