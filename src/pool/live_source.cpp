#include "pool/live_source.hpp"

#include <filesystem>

#include "bmp/bmp.hpp"
#include "exabgp/exabgp.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"

namespace bgps::pool {

LiveSource::LiveSource(Options options) : options_(std::move(options)) {}

LiveSource::~LiveSource() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.governor && leases_ > 0) options_.governor->Release(leases_);
  leases_ = 0;
}

Result<std::unique_ptr<LiveSource>> LiveSource::Create(Options options) {
  if (options.spool_dir.empty())
    return InvalidArgument("LiveSource: spool_dir is required");
  if (options.flush_records == 0)
    return InvalidArgument("LiveSource: flush_records must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(options.spool_dir, ec);
  if (ec)
    return IoError("LiveSource: cannot create spool dir " +
                   options.spool_dir + ": " + ec.message());
  return std::unique_ptr<LiveSource>(new LiveSource(std::move(options)));
}

Status LiveSource::FlushLocked() {
  if (pending_.empty()) return OkStatus();

  std::string path = options_.spool_dir + "/live-" +
                     std::to_string(dump_seq_++) + ".mrt";
  mrt::MrtFileWriter writer;
  BGPS_RETURN_IF_ERROR(writer.Open(path));
  Timestamp first = pending_.front().first;
  Timestamp last = first;
  for (const auto& [ts, encoded] : pending_) {
    if (ts < first) first = ts;
    if (ts > last) last = ts;
    BGPS_RETURN_IF_ERROR(writer.Write(encoded));
  }
  BGPS_RETURN_IF_ERROR(writer.Close());

  broker::DumpFileMeta meta;
  meta.project = options_.project;
  meta.collector = options_.collector;
  meta.type = broker::DumpType::Updates;
  meta.start = first;
  meta.duration = last - first;
  meta.publish_time = last;
  meta.path = std::move(path);
  feed_.Push(std::move(meta));

  records_spooled_.fetch_add(pending_.size(), std::memory_order_relaxed);
  dumps_published_.fetch_add(1, std::memory_order_relaxed);
  pending_.clear();
  // The records now live on disk, not in RAM: return their leases. The
  // consuming stream re-accounts them slot-by-slot as it decodes the
  // published file.
  if (options_.governor && leases_ > 0) {
    options_.governor->Release(leases_);
    leases_ = 0;
  }
  return OkStatus();
}

Status LiveSource::SpoolRecord(Timestamp ts, Bytes encoded) {
  if (options_.governor) {
    if (!options_.governor->TryAcquire(1)) {
      // Budget exhausted. First hand the consumers everything we hold
      // (publishing releases our leases, so downstream can always make
      // progress), then park fair-FIFO until a slot frees — this is the
      // socket backpressure.
      {
        std::lock_guard<std::mutex> lock(mu_);
        BGPS_RETURN_IF_ERROR(FlushLocked());
      }
      parks_.fetch_add(1, std::memory_order_relaxed);
      BGPS_RETURN_IF_ERROR(options_.governor->Acquire(1));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.governor) ++leases_;
  pending_.emplace_back(ts, std::move(encoded));
  if (pending_.size() >= options_.flush_records) return FlushLocked();
  return OkStatus();
}

Status LiveSource::HandleBmp(const bmp::BmpMessage& msg) {
  messages_decoded_.fetch_add(1, std::memory_order_relaxed);

  bgp::Asn hint = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bmp::PeerHeader* ph = nullptr;
    if (msg.is_route_monitoring())
      ph = &std::get<bmp::RouteMonitoring>(msg.body).peer;
    else if (msg.is_peer_down())
      ph = &std::get<bmp::PeerDown>(msg.body).peer;
    else if (msg.is_peer_up())
      ph = &std::get<bmp::PeerUp>(msg.body).peer;
    if (ph != nullptr) {
      auto key = std::make_pair(ph->peer_address.ToString(),
                                uint32_t(ph->peer_asn));
      if (msg.is_peer_up()) {
        // Learn this peer's local ASN from its Peer Up OPEN; it becomes
        // the local_asn hint of every later record from the same peer.
        peer_local_asn_[key] = uint32_t(std::get<bmp::PeerUp>(msg.body).local_asn);
      }
      auto it = peer_local_asn_.find(key);
      if (it != peer_local_asn_.end()) hint = it->second;
    }
  }

  auto mrt_msg = bmp::ToMrt(msg, hint);
  if (!mrt_msg) return OkStatus();  // Initiation/Termination: no record
  if (mrt_msg->is_state_change())
    fsm_records_.fetch_add(1, std::memory_order_relaxed);

  Bytes encoded =
      mrt_msg->is_message()
          ? mrt::EncodeBgp4mpUpdate(
                mrt_msg->timestamp,
                std::get<mrt::Bgp4mpMessage>(mrt_msg->body))
          : mrt::EncodeBgp4mpStateChange(
                mrt_msg->timestamp,
                std::get<mrt::Bgp4mpStateChange>(mrt_msg->body));
  return SpoolRecord(mrt_msg->timestamp, std::move(encoded));
}

Status LiveSource::IngestBmp(std::span<const uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return InvalidArgument("LiveSource: ingest after Close");
    if (framing_lost_) {
      // The frame boundary is gone; nothing in this connection's byte
      // stream can be trusted until the transport reconnects.
      return OkStatus();
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Frame-and-decode loop. The buffer is only appended to by this
  // (single) ingest thread, so working on a snapshot reader while
  // releasing mu_ around HandleBmp (which may block in the governor) is
  // safe: nobody else mutates buf_ underneath us except NoteDisconnect,
  // which the session reader itself calls.
  Bytes working;
  {
    std::lock_guard<std::mutex> lock(mu_);
    working = std::move(buf_);
    buf_.clear();
  }
  BufReader r(working);
  size_t consumed = 0;
  Status result = OkStatus();
  while (true) {
    size_t before = r.position();
    auto msg = bmp::Decode(r);
    if (msg.ok()) {
      consumed = r.position();
      result = HandleBmp(*msg);
      if (!result.ok()) break;
      continue;
    }
    StatusCode code = msg.status().code();
    if (code == StatusCode::EndOfStream) {
      consumed = r.position();
      break;
    }
    if (code == StatusCode::OutOfRange) {
      // Partial frame: keep the prefix for the next chunk.
      consumed = before;
      break;
    }
    if (r.position() > before) {
      // Well-framed but undecodable (garbled body) or unsupported type:
      // the framer is still aligned — count and continue.
      consumed = r.position();
      corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Framing-level corruption (bad version, implausible length): the
    // boundary is lost and there is no resync marker. Drop the rest of
    // this connection's bytes; NoteDisconnect clears the desync.
    framing_losses_.fetch_add(1, std::memory_order_relaxed);
    corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
    consumed = working.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      framing_lost_ = true;
    }
    break;
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Unconsumed tail, then anything a concurrent-looking append left in
  // buf_ (none in the single-ingest-thread contract, but cheap).
  Bytes rest(working.begin() + consumed, working.end());
  rest.insert(rest.end(), buf_.begin(), buf_.end());
  buf_ = std::move(rest);
  if (framing_lost_) buf_.clear();
  return result;
}

Status LiveSource::IngestExaBgpLine(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return InvalidArgument("LiveSource: ingest after Close");
  }
  if (line.empty()) return OkStatus();
  auto msg = exabgp::DecodeLine(line);
  if (!msg.ok()) {
    // Tolerant parse (§3.3.3): a malformed line is data to count, not a
    // reason to kill the session.
    corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  messages_decoded_.fetch_add(1, std::memory_order_relaxed);
  if (msg->kind == exabgp::ExaBgpMessage::Kind::State)
    fsm_records_.fetch_add(1, std::memory_order_relaxed);
  return SpoolRecord(msg->time, exabgp::EncodeAsMrt(*msg));
}

void LiveSource::NoteDisconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  buf_.clear();
  framing_lost_ = false;
}

Status LiveSource::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status LiveSource::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return OkStatus();
  Status flushed = FlushLocked();
  closed_ = true;
  feed_.Close();
  return flushed;
}

LiveSource::Stats LiveSource::stats() const {
  Stats s;
  s.messages_decoded = messages_decoded_.load(std::memory_order_relaxed);
  s.fsm_records = fsm_records_.load(std::memory_order_relaxed);
  s.corrupt_frames = corrupt_frames_.load(std::memory_order_relaxed);
  s.framing_losses = framing_losses_.load(std::memory_order_relaxed);
  s.records_spooled = records_spooled_.load(std::memory_order_relaxed);
  s.dumps_published = dumps_published_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.pending_records = pending_.size();
  s.buffered_bytes = buf_.size();
  return s;
}

}  // namespace bgps::pool
