#include "inputs.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bmp/bmp.hpp"
#include "core/clock.hpp"
#include "core/elem.hpp"
#include "core/stream.hpp"
#include "corsaro/corsaro.hpp"
#include "mrt/file.hpp"
#include "pool/live_source.hpp"
#include "sim/replay.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bgps;
namespace fs = std::filesystem;

Result<Scale> ScaleFor(const std::string& name, uint64_t seed) {
  Scale s;
  s.name = name;
  s.archive.scenario = "mixed";
  s.live.scenario = "mixed";
  if (name == "full") {
    s.archive.duration = 4 * 3600;
    s.archive_records = 240'000;  // seeds 1-20 hold 263k-340k records
    s.archive.rv_collectors = 2;
    s.archive.ris_collectors = 2;
    s.archive.vps_per_collector = 8;
    s.rib.prefixes = 50'000;
    s.rib.vps = 16;
    // s.live keeps bgpsim's defaults: the 2-hour mixed corpus.
  } else if (name == "tiny") {
    s.archive.duration = 1800;
    s.archive_records = 4'000;
    s.archive.vps_per_collector = 2;
    s.rib.prefixes = 2'000;
    s.rib.vps = 16;
    s.live.duration = 900;
    s.live.vps_per_collector = 2;
  } else {
    return InvalidArgument("unknown scale '" + name + "' (full or tiny)");
  }
  s.rib.update_windows = 4;
  s.rib.final_rib = true;
  s.archive.seed = s.rib.seed = s.live.seed = seed;
  return s;
}

namespace {

// Size and mtime of the running executable: references computed by one
// build are never used to check another.
std::string BuildId() {
  struct stat st {};
  if (::stat("/proc/self/exe", &st) != 0) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llx-%llx", (unsigned long long)st.st_size,
                (unsigned long long)st.st_mtim.tv_sec * 1000000000ULL +
                    (unsigned long long)st.st_mtim.tv_nsec);
  return buf;
}

std::string CorpusSignature(const sim::CorpusOptions& o) {
  std::ostringstream s;
  s << "bgpsim v1 scenario=" << o.scenario << " seed=" << o.seed
    << " start=" << o.start << " duration=" << o.duration
    << " rv=" << o.rv_collectors << " ris=" << o.ris_collectors
    << " vps=" << o.vps_per_collector << " flaps=" << o.flaps_per_hour;
  return s.str();
}

// The dump files a stream over the window opens: the broker's answer
// to the same queries BrokerDataInterface makes.
void ListWindow(Archive& a) {
  broker::Broker broker(a.root);
  core::BrokerDataInterface di(&broker);
  core::FilterSet filters;
  filters.interval = {a.start, a.end};
  a.paths.clear();
  a.bytes = 0;
  for (;;) {
    core::DataBatch batch = di.NextBatch(filters);
    for (const auto& f : batch.files) {
      a.paths.push_back(f.path);
      std::error_code ec;
      a.bytes += fs::file_size(f.path, ec);
    }
    if (batch.end_of_stream || batch.files.empty()) break;
  }
}

Result<Archive> EnsureCorpus(const sim::CorpusOptions& options,
                             const std::string& root, double& generate_s) {
  const std::string marker = root + ".done";
  const std::string signature = CorpusSignature(options);
  Archive a;
  a.root = root;
  {
    std::ifstream in(marker);
    std::string line;
    if (std::getline(in, line) && line == signature && (in >> a.start >> a.end))
      return a;
  }
  const double t0 = Now();
  fs::remove(root + ".window");
  auto stats = sim::GenerateCorpus(options, root);
  if (!stats.ok()) return stats.status();
  generate_s += Now() - t0;
  a.start = stats->start;
  a.end = stats->end;
  std::ofstream out(marker);
  out << signature << "\n" << a.start << " " << a.end << "\n";
  if (!out) return IoError("cannot write " + marker);
  return a;
}

Result<Archive> EnsureRib(const sim::SyntheticRibOptions& options,
                          const std::string& root, double& generate_s) {
  const double t0 = Now();
  auto stats = sim::EnsureSyntheticRib(options, root);
  if (!stats.ok()) return stats.status();
  generate_s += Now() - t0;
  Archive a;
  a.root = root;
  a.start = stats->start;
  a.end = stats->end;
  ListWindow(a);
  return a;
}

// Frames file: repeated [u32 little-endian length][frame bytes].
Result<Frames> EnsureFrames(const Archive& corpus, const std::string& path,
                            const std::string& signature,
                            double& generate_s) {
  const std::string marker = path + ".done";
  bool cached = false;
  {
    std::ifstream in(marker);
    std::string line;
    cached = std::getline(in, line) && line == signature;
  }
  if (!cached) {
    const double t0 = Now();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::ManualClock clock;  // pacing arithmetic only, no wall time
    sim::ReplayOptions ropt;
    ropt.archive_root = corpus.root;
    ropt.format = sim::ReplayFormat::Bmp;
    ropt.clock = &clock;
    auto replay = sim::ReplayArchive(
        ropt, [&](Timestamp, const Bytes& payload) -> Status {
          uint32_t len = uint32_t(payload.size());
          uint8_t le[4] = {uint8_t(len), uint8_t(len >> 8), uint8_t(len >> 16),
                           uint8_t(len >> 24)};
          out.write(reinterpret_cast<const char*>(le), 4);
          out.write(reinterpret_cast<const char*>(payload.data()),
                    std::streamsize(payload.size()));
          return out ? OkStatus() : IoError("cannot write " + path);
        });
    if (!replay.ok()) return replay.status();
    out.close();
    std::ofstream m(marker);
    m << signature << "\n";
    if (!out || !m) return IoError("cannot write " + path);
    generate_s += Now() - t0;
  }
  std::ifstream in(path, std::ios::binary);
  const Bytes raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  Frames f;
  f.offsets.push_back(0);
  size_t pos = 0;
  while (pos + 4 <= raw.size()) {
    size_t len = size_t(raw[pos]) | size_t(raw[pos + 1]) << 8 |
                 size_t(raw[pos + 2]) << 16 | size_t(raw[pos + 3]) << 24;
    pos += 4;
    if (len > raw.size() - pos) break;
    f.blob.insert(f.blob.end(), raw.begin() + long(pos),
                  raw.begin() + long(pos + len));
    f.offsets.push_back(f.blob.size());
    pos += len;
  }
  if (pos != raw.size()) return CorruptError("truncated frames file " + path);
  return f;
}

bool ReadRef(const std::string& path, std::vector<uint64_t>& fields,
             size_t n) {
  std::ifstream in(path);
  fields.assign(n, 0);
  for (size_t i = 0; i < n; ++i)
    if (!(in >> std::hex >> fields[i])) return false;
  return true;
}

Status WriteRef(const std::string& path, const std::vector<uint64_t>& fields) {
  std::ofstream out(path);
  for (uint64_t v : fields) out << std::hex << v << "\n";
  return out ? OkStatus() : IoError("cannot write " + path);
}

// Moves the window's end to the timestamp of the `records`-th record a
// sequential stream over the corpus emits (the whole corpus if it has
// fewer). Cached beside the corpus: the cut is part of the input.
Status CutWindow(Archive& a, uint64_t records, double& reference_s) {
  const std::string path = a.root + ".window";
  {
    std::ifstream in(path);
    uint64_t n = 0;
    Timestamp end = 0;
    if ((in >> n >> end) && n == records) {
      a.end = end;
      return OkStatus();
    }
  }
  const double t0 = Now();
  broker::Broker broker(a.root);
  core::BrokerDataInterface di(&broker);
  core::BgpStream stream;
  stream.SetInterval(a.start, a.end);
  stream.SetDataInterface(&di);
  BGPS_RETURN_IF_ERROR(stream.Start());
  uint64_t n = 0;
  while (auto rec = stream.NextRecord()) {
    if (n++ == records) {
      a.end = rec->timestamp;
      break;
    }
  }
  BGPS_RETURN_IF_ERROR(stream.status());
  reference_s += Now() - t0;
  std::ofstream out(path);
  out << records << " " << a.end << "\n";
  return out ? OkStatus() : IoError("cannot write " + path);
}

Result<RtRef> SequentialRt(const Archive& rib) {
  broker::Broker broker(rib.root);
  core::BrokerDataInterface di(&broker);
  core::BgpStream stream;
  stream.SetInterval(rib.start, rib.end);
  stream.SetDataInterface(&di);
  BGPS_RETURN_IF_ERROR(stream.Start());
  corsaro::BgpCorsaro engine(&stream, kRtBinSeconds);
  auto rt = std::make_unique<corsaro::RoutingTables>();
  corsaro::RoutingTables* rt_ptr = rt.get();
  Digest digest;
  RtRef ref;
  rt->set_diff_callback(
      [&](Timestamp bin, const std::vector<corsaro::DiffCell>& diffs) {
        digest.AddDiffs(bin, diffs);
        ref.diff_cells += diffs.size();
      });
  engine.AddPlugin(std::move(rt));
  ref.records = engine.Run();
  if (!stream.status().ok()) return stream.status();
  ref.bins = rt_ptr->bin_stats().size();
  ref.rib_mismatches = rt_ptr->rib_mismatches();
  ref.digest = digest.value();
  return ref;
}

// Decodes every frame directly: bmp::Decode, then bmp::ToMrt with the
// local ASN learned from the peer's Peer Up (the session -> MRT mapping
// of a BMP collector), then the elems of the MRT message. Records carry
// the provenance a LiveSource stamps by default.
Result<LiveRef> DirectLive(const Frames& frames) {
  const pool::LiveSource::Options names;
  std::map<std::pair<std::string, uint32_t>, uint32_t> local_asn;
  LiveRef ref;
  ref.records_per_frame.reserve(frames.size());
  Digest digest;
  for (size_t i = 0; i < frames.size(); ++i) {
    BufReader r(frames.frame(i));
    auto msg = bmp::Decode(r);
    if (!msg.ok()) return msg.status();
    const bmp::PeerHeader* ph = nullptr;
    if (msg->is_route_monitoring())
      ph = &std::get<bmp::RouteMonitoring>(msg->body).peer;
    else if (msg->is_peer_down())
      ph = &std::get<bmp::PeerDown>(msg->body).peer;
    else if (msg->is_peer_up())
      ph = &std::get<bmp::PeerUp>(msg->body).peer;
    bgp::Asn hint = 0;
    if (ph != nullptr) {
      const auto key = std::make_pair(ph->peer_address.ToString(),
                                      uint32_t(ph->peer_asn));
      if (msg->is_peer_up())
        local_asn[key] = uint32_t(std::get<bmp::PeerUp>(msg->body).local_asn);
      auto it = local_asn.find(key);
      if (it != local_asn.end()) hint = it->second;
    }
    auto mrt_msg = bmp::ToMrt(*msg, hint);
    ref.records_per_frame.push_back(mrt_msg ? 1 : 0);
    if (!mrt_msg) continue;
    core::Record rec;
    rec.project = names.project;
    rec.collector = names.collector;
    rec.timestamp = mrt_msg->timestamp;
    rec.msg = std::move(*mrt_msg);
    ++ref.stream.records;
    digest.AddRecordContent(rec);
    for (const auto& e : core::ExtractElems(rec)) {
      ++ref.stream.elems;
      digest.AddElem(e);
    }
  }
  ref.stream.digest = digest.value();
  return ref;
}

// Writes the head copy of every file of the window (its first
// kHeadRecords records, byte for byte), marked done with a marker file.
Status EnsureHeads(Archive& a, double& generate_s) {
  a.heads = a.root + ".heads";
  const std::string marker = a.heads + ".done";
  const std::string signature = "heads v1 records=" + std::to_string(kHeadRecords) +
                                " end=" + std::to_string(a.end);
  {
    std::ifstream in(marker);
    std::string line;
    if (std::getline(in, line) && line == signature) return OkStatus();
  }
  const double t0 = Now();
  fs::remove_all(a.heads);
  for (const auto& path : a.paths) {
    if (path.rfind(a.root, 0) != 0)
      return InvalidArgument("dump file " + path + " is outside " + a.root);
    mrt::MrtFileReader reader;
    BGPS_RETURN_IF_ERROR(reader.Open(path));
    for (size_t i = 0; i < kHeadRecords && reader.Next().ok(); ++i) {
    }
    std::vector<char> bytes(reader.offset());
    std::ifstream in(path, std::ios::binary);
    in.read(bytes.data(), std::streamsize(bytes.size()));
    const std::string head = HeadPath(a, path);
    std::error_code ec;
    fs::create_directories(fs::path(head).parent_path(), ec);
    std::ofstream out(head, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    if (!in || !out) return IoError("cannot write " + head);
  }
  std::ofstream m(marker);
  m << signature << "\n";
  if (!m) return IoError("cannot write " + marker);
  generate_s += Now() - t0;
  return OkStatus();
}

Result<StreamRef> SequentialStream(const Archive& archive, bool filtered) {
  broker::Broker broker(archive.root);
  core::BrokerDataInterface di(&broker);
  core::BgpStream stream;
  if (filtered) BGPS_RETURN_IF_ERROR(stream.AddFilter(kFilterKey, kFilterValue));
  stream.SetInterval(archive.start, archive.end);
  stream.SetDataInterface(&di);
  BGPS_RETURN_IF_ERROR(stream.Start());
  const StreamRef ref = Drain(
      stream, "stream.next_record", "stream.elems", false,
      [](uint64_t) { return true; }, [](uint64_t) {});
  BGPS_RETURN_IF_ERROR(stream.status());
  return ref;
}

}  // namespace

std::string HeadPath(const Archive& a, const std::string& path) {
  return a.heads + path.substr(a.root.size());
}

void WarmArchive(const Archive& archive) {
  std::vector<char> buf(1 << 20);
  for (const auto& path : archive.paths) {
    std::ifstream in(path, std::ios::binary);
    while (in.read(buf.data(), std::streamsize(buf.size())) || in.gcount() > 0) {
    }
  }
}

Result<Inputs> EnsureInputs(const std::string& workload,
                            const std::string& cache_dir, const Scale& scale,
                            uint64_t seed) {
  Inputs in;
  in.scale = scale;
  const std::string base = cache_dir + "/" + scale.name;
  const std::string refs = base + "/refs-" + BuildId();
  const std::string s = "-s" + std::to_string(seed);
  std::error_code ec;
  fs::create_directories(refs, ec);
  if (ec) return IoError("cannot create " + refs + ": " + ec.message());

  auto stream_ref = [&](const Archive& a, bool filtered,
                        const std::string& path) -> Result<StreamRef> {
    std::vector<uint64_t> f;
    if (ReadRef(path, f, 3)) return StreamRef{f[0], f[1], f[2]};
    const double t0 = Now();
    auto ref = SequentialStream(a, filtered);
    if (!ref.ok()) return ref.status();
    in.reference_s += Now() - t0;
    BGPS_RETURN_IF_ERROR(WriteRef(path, {ref->records, ref->elems, ref->digest}));
    return ref;
  };

  if (workload != "rib-rt") {
    BGPS_ASSIGN_OR_RETURN(in.archive, EnsureCorpus(scale.archive, base + "/archive" + s,
                                                   in.generate_s));
    BGPS_RETURN_IF_ERROR(CutWindow(in.archive, scale.archive_records, in.reference_s));
    ListWindow(in.archive);
    BGPS_ASSIGN_OR_RETURN(in.archive_ref,
                          stream_ref(in.archive, false, refs + "/archive" + s));
  }
  if (workload == "fanout") {
    BGPS_ASSIGN_OR_RETURN(in.filtered_ref,
                          stream_ref(in.archive, true, refs + "/filtered" + s));
    BGPS_RETURN_IF_ERROR(EnsureHeads(in.archive, in.generate_s));
  }
  if (workload == "rib-rt") {
    BGPS_ASSIGN_OR_RETURN(in.rib, EnsureRib(scale.rib, base + "/rib" + s, in.generate_s));
    const std::string path = refs + "/rib" + s;
    std::vector<uint64_t> f;
    if (ReadRef(path, f, 5)) {
      in.rib_ref = RtRef{f[0], f[1], f[2], f[3], f[4]};
    } else {
      const double t0 = Now();
      BGPS_ASSIGN_OR_RETURN(in.rib_ref, SequentialRt(in.rib));
      in.reference_s += Now() - t0;
      const RtRef& r = in.rib_ref;
      BGPS_RETURN_IF_ERROR(WriteRef(
          path, {r.records, r.bins, r.diff_cells, r.rib_mismatches, r.digest}));
    }
  }
  if (workload == "live") {
    Archive corpus;
    BGPS_ASSIGN_OR_RETURN(corpus, EnsureCorpus(scale.live, base + "/live" + s,
                                               in.generate_s));
    BGPS_ASSIGN_OR_RETURN(
        in.frames, EnsureFrames(corpus, base + "/live" + s + ".frames",
                                CorpusSignature(scale.live) + " bmp-frames v1",
                                in.generate_s));
    const std::string path = refs + "/live" + s;
    std::vector<uint64_t> f;
    std::ifstream rpf(path + ".rpf", std::ios::binary);
    std::vector<uint8_t> counts((std::istreambuf_iterator<char>(rpf)),
                                std::istreambuf_iterator<char>());
    if (ReadRef(path, f, 3) && counts.size() == in.frames.size()) {
      in.live_ref.stream = StreamRef{f[0], f[1], f[2]};
      in.live_ref.records_per_frame = std::move(counts);
    } else {
      const double t0 = Now();
      BGPS_ASSIGN_OR_RETURN(in.live_ref, DirectLive(in.frames));
      in.reference_s += Now() - t0;
      const StreamRef& r = in.live_ref.stream;
      BGPS_RETURN_IF_ERROR(WriteRef(path, {r.records, r.elems, r.digest}));
      std::ofstream out(path + ".rpf", std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(in.live_ref.records_per_frame.data()),
                std::streamsize(in.live_ref.records_per_frame.size()));
      if (!out) return IoError("cannot write " + path + ".rpf");
    }
  }
  return in;
}

}  // namespace perfbench
