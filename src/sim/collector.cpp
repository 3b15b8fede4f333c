#include "sim/collector.hpp"

#include <algorithm>
#include <filesystem>

#include "broker/archive.hpp"
#include "mrt/encode.hpp"

namespace fs = std::filesystem;

namespace bgps::sim {

IpAddress VpAddressFor(Asn asn) {
  // 10.x.y.1 with x.y derived from the ASN: unique per AS in our range.
  return IpAddress::V4(10, uint8_t(asn >> 8), uint8_t(asn), 1);
}

IpAddress VpAddressV6For(Asn asn) {
  std::array<uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  b[2] = 0x0d;
  b[3] = 0xb8;
  b[4] = uint8_t(asn >> 8);
  b[5] = uint8_t(asn);
  b[15] = 1;
  return IpAddress::V6(b);
}

CollectorSim::CollectorSim(CollectorConfig config, std::string archive_root,
                           uint64_t seed)
    : config_(std::move(config)),
      archive_root_(std::move(archive_root)),
      rng_(seed) {
  for (size_t i = 0; i < config_.vps.size(); ++i)
    vp_index_[config_.vps[i].asn] = i;
}

const VpSpec* CollectorSim::Find(Asn vp) const {
  auto it = vp_index_.find(vp);
  return it == vp_index_.end() ? nullptr : &config_.vps[it->second];
}

std::optional<Route> CollectorSim::ExportFor(
    const VpSpec& vp, const std::optional<Route>& route) const {
  if (!route) return std::nullopt;
  if (!vp.full_feed && route->source != RouteSource::Origin &&
      route->source != RouteSource::Customer)
    return std::nullopt;
  return route;
}

void CollectorSim::BufferUpdate(Timestamp t, const VpSpec& vp,
                                const Prefix& prefix,
                                const std::optional<Route>& route) {
  if (config_.update_loss_probability > 0 &&
      std::uniform_real_distribution<>(0, 1)(rng_) <
          config_.update_loss_probability) {
    ++updates_lost_;
    return;
  }
  mrt::Bgp4mpMessage msg;
  msg.peer_asn = vp.asn;
  msg.local_asn = config_.collector_asn;
  msg.peer_address = vp.address;
  msg.local_address = config_.collector_address;

  if (!route) {
    // Withdrawal.
    if (prefix.family() == IpFamily::V4) {
      msg.update.withdrawn.push_back(prefix);
    } else {
      msg.update.attrs.mp_unreach.emplace().withdrawn.push_back(prefix);
    }
  } else {
    // Announcement: the VP prepends itself when exporting to the collector.
    std::vector<Asn> path;
    path.reserve(route->path.size() + 1);
    path.push_back(vp.asn);
    path.insert(path.end(), route->path.begin(), route->path.end());
    msg.update.attrs.as_path = bgp::AsPath::Sequence(std::move(path));
    msg.update.attrs.origin = bgp::Origin::Igp;
    msg.update.attrs.communities = route->communities;
    if (prefix.family() == IpFamily::V4) {
      msg.update.attrs.next_hop = vp.address;
      msg.update.announced.push_back(prefix);
    } else {
      bgp::MpReach& mp = msg.update.attrs.mp_reach.emplace();
      mp.next_hop = VpAddressV6For(vp.asn);
      mp.nlri.push_back(prefix);
    }
  }
  pending_.push_back({t, mrt::EncodeBgp4mpUpdate(t, msg, config_.asn_encoding)});
  ++total_messages_;
}

void CollectorSim::OnDelta(Timestamp t, const VpDelta& delta) {
  const VpSpec* vp = Find(delta.vp);
  if (vp == nullptr || down_.count(delta.vp)) return;
  auto before = ExportFor(*vp, delta.before);
  auto after = ExportFor(*vp, delta.after);
  if (before == after) return;  // invisible through this VP's feed policy
  BufferUpdate(t, *vp, delta.prefix, after);
}

void CollectorSim::VpDown(Timestamp t, Asn vp_asn, bool silent) {
  const VpSpec* vp = Find(vp_asn);
  if (vp == nullptr || down_.count(vp_asn)) return;
  down_.insert(vp_asn);
  if (config_.state_messages && !silent) {
    mrt::Bgp4mpStateChange sc;
    sc.peer_asn = vp_asn;
    sc.local_asn = config_.collector_asn;
    sc.peer_address = vp->address;
    sc.local_address = config_.collector_address;
    sc.old_state = bgp::FsmState::Established;
    sc.new_state = bgp::FsmState::Idle;
    pending_.push_back(
        {t, mrt::EncodeBgp4mpStateChange(t, sc, config_.asn_encoding)});
  }
}

void CollectorSim::VpUp(Timestamp t, Asn vp_asn, const World& world) {
  const VpSpec* vp = Find(vp_asn);
  if (vp == nullptr || !down_.count(vp_asn)) return;
  down_.erase(vp_asn);
  if (config_.state_messages) {
    mrt::Bgp4mpStateChange sc;
    sc.peer_asn = vp_asn;
    sc.local_asn = config_.collector_asn;
    sc.peer_address = vp->address;
    sc.local_address = config_.collector_address;
    sc.old_state = bgp::FsmState::OpenConfirm;
    sc.new_state = bgp::FsmState::Established;
    pending_.push_back(
        {t, mrt::EncodeBgp4mpStateChange(t, sc, config_.asn_encoding)});
  }
  // Session re-establishment: the VP re-advertises its full table.
  for (const auto& [prefix, route] : world.ExportedTable(vp_asn, vp->full_feed))
    BufferUpdate(t, *vp, prefix, route);
}

std::string CollectorSim::DumpPath(broker::DumpType type, Timestamp start,
                                   Timestamp duration,
                                   Timestamp delay) const {
  fs::path dir = fs::path(archive_root_) / config_.project / config_.name /
                 broker::DumpTypeName(type);
  std::error_code ec;
  fs::create_directories(dir, ec);
  return (dir / broker::ArchiveFileName(start, duration, delay)).string();
}

Status CollectorSim::WriteRib(Timestamp t, const World& world) {
  Timestamp delay = config_.publish_delay;
  if (config_.publish_jitter > 0)
    delay += Timestamp(rng_() % uint64_t(config_.publish_jitter));
  mrt::MrtFileWriter writer;
  BGPS_RETURN_IF_ERROR(
      writer.Open(DumpPath(broker::DumpType::Rib, t, config_.rib_period, delay)));

  // Peer index table lists every configured VP (down ones simply have no
  // entries in the body, like a real collector).
  mrt::PeerIndexTable pit;
  pit.collector_bgp_id = uint32_t(config_.collector_asn);
  pit.view_name = config_.name;
  for (const auto& vp : config_.vps)
    pit.peers.push_back({uint32_t(vp.asn), vp.address, vp.asn});
  BGPS_RETURN_IF_ERROR(
      writer.Write(mrt::EncodePeerIndexTable(t, pit, config_.asn_encoding)));

  // One RIB record per announced prefix with at least one live-VP route.
  // All records carry the snapshot instant `t`: the dumped content is the
  // collector's state at t, so a later timestamp would fabricate the
  // "collector applied updates after assigning the dump timestamp"
  // anomaly the paper blames for (rare) RT mismatches (§6.2.1). That
  // anomaly is exercised separately in the RT unit tests (event E2).
  uint32_t seq = 0;
  size_t written = 0;
  for (const auto& [prefix, _] : world.announced()) {
    mrt::RibPrefix rib;
    rib.prefix = prefix;
    rib.sequence = seq;
    Timestamp record_time = t;
    for (size_t i = 0; i < config_.vps.size(); ++i) {
      const auto& vp = config_.vps[i];
      if (down_.count(vp.asn)) continue;
      auto route = world.ExportedRoute(vp.asn, prefix, vp.full_feed);
      if (!route) continue;
      mrt::RibEntry entry;
      entry.peer_index = uint16_t(i);
      entry.originated_time = record_time;
      std::vector<Asn> path;
      path.push_back(vp.asn);
      path.insert(path.end(), route->path.begin(), route->path.end());
      entry.attrs.as_path = bgp::AsPath::Sequence(std::move(path));
      entry.attrs.communities = route->communities;
      if (prefix.family() == IpFamily::V4) {
        entry.attrs.next_hop = vp.address;
      } else {
        bgp::MpReach mp;
        mp.next_hop = VpAddressV6For(vp.asn);
        entry.attrs.mp_reach = std::move(mp);
      }
      rib.entries.push_back(std::move(entry));
    }
    if (rib.entries.empty()) continue;
    ++seq;
    ++written;
    BGPS_RETURN_IF_ERROR(
        writer.Write(mrt::EncodeRibPrefix(record_time, rib, prefix.family())));
  }
  ++ribs_written_;
  return writer.Close();
}

Status CollectorSim::FlushUpdates(Timestamp window_start) {
  Timestamp delay = config_.publish_delay;
  if (config_.publish_jitter > 0)
    delay += Timestamp(rng_() % uint64_t(config_.publish_jitter));
  const Timestamp window_end = window_start + config_.update_period;

  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const PendingRecord& a, const PendingRecord& b) {
                     return a.time < b.time;
                   });
  // Records in [window_start, window_end) go into this dump.
  size_t count = 0;
  while (count < pending_.size() && pending_[count].time < window_end) ++count;

  mrt::MrtFileWriter writer;
  BGPS_RETURN_IF_ERROR(writer.Open(DumpPath(
      broker::DumpType::Updates, window_start, config_.update_period, delay)));

  // Corruption injection: truncate the dump mid-record with the configured
  // probability (exercises the Corrupt record path end-to-end).
  bool corrupt = config_.corrupt_probability > 0 &&
                 std::uniform_real_distribution<>(0, 1)(rng_) <
                     config_.corrupt_probability &&
                 count > 0;
  if (corrupt) {
    Bytes blob;
    for (size_t i = 0; i < count; ++i)
      blob.insert(blob.end(), pending_[i].encoded.begin(),
                  pending_[i].encoded.end());
    size_t cut = blob.size() - std::min<size_t>(blob.size() / 2 + 1,
                                                1 + rng_() % 32);
    blob.resize(std::max<size_t>(cut, mrt::kMrtHeaderSize + 1));
    BGPS_RETURN_IF_ERROR(writer.WriteRaw(blob));
  } else {
    for (size_t i = 0; i < count; ++i)
      BGPS_RETURN_IF_ERROR(writer.Write(pending_[i].encoded));
  }
  pending_.erase(pending_.begin(), pending_.begin() + long(count));
  ++updates_written_;
  return writer.Close();
}

}  // namespace bgps::sim
