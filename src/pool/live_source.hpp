// LiveSource — the live ingestion tier (paper §2/§7: BGPStream serves
// historical archives and live feeds through one client API; OpenBMP
// and exabgp are the live formats it names).
//
// A LiveSource turns a live session's wire traffic into the exact
// record plane the rest of the system already speaks:
//
//   socket bytes ──IngestBmp──▶ frame ▶ decode ▶ per-peer state ▶ MRT
//   json lines ──IngestExaBgpLine──▶ decode ─────────────────────┘
//                     │ 1 governor slot per pending record
//                     ▼
//            pending records ──flush──▶ appended to <spool_dir>/live.mrt
//                     │ Push(DumpFileMeta: the segment + the byte range)
//                     ▼
//            core::LiveFeedInterface ──▶ live-mode BgpStream tenant
//
// A flush happens when flush_records records are pending, or at once
// while the consumer is blocked waiting for data (the feed also calls
// Flush() before it waits). A micro-dump is therefore whatever arrived
// while the consumer was busy: one record on an idle tenant, up to
// flush_records under load, with no timer. Every micro-dump is a byte
// range of one append-only segment file, so a flush costs an append,
// not a file creation.
//
// The consuming stream is an ordinary StreamPool tenant, so
// filters, fan-out and analytics consume live data unchanged, and the
// emitted records/elems are byte-identical to directly decoding the
// same payloads (pinned by tests/live_source_test.cpp).
//
// Backpressure (never OOM): every record held in RAM between decode and
// flush leases one slot from the shared MemoryGovernor. When the budget
// is exhausted the source first flushes its pending records (releasing
// the leases and publishing the data, so consumers can always make
// progress), then *parks* in a fair-FIFO Acquire on the session-reader
// thread — exactly the "govern the socket instead of growing a buffer"
// behavior ROADMAP direction 4 asks for. The park ends when a consumer
// drains a record and its lease is released; nothing is taken back from
// paused tenants, so the budget must leave the live tenant headroom.
//
// Fault tolerance (pinned by tests/live_fault_test.cpp):
//   * arbitrary chunk boundaries — partial frames are buffered until
//     the rest arrives (bmp::Decode consumes nothing on OutOfRange);
//   * garbled-but-well-framed messages are counted and skipped, the
//     framer stays aligned;
//   * framing-level garbage (bad version / implausible length) loses
//     the frame boundary: the connection's remaining bytes are dropped
//     and ingestion resumes after NoteDisconnect() (reconnect);
//   * disconnect/reconnect at a frame boundary is seamless — per-peer
//     state survives, and the record sequence matches an uninterrupted
//     session.
//
// Threading: the Ingest*/NoteDisconnect/Close calls must come from ONE
// session-reader thread (a TCP session delivers bytes in order; two
// writers would interleave frames). Flush() may run on that thread or
// on the consuming stream's thread, where the feed calls it before it
// waits for data. stats() and the consuming stream may run on any
// other threads. Lock order: mu_, then the feed's mutex.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/data_interface.hpp"
#include "core/executor.hpp"
#include "core/governor.hpp"
#include "mrt/file.hpp"

namespace bgps::bmp {
struct BmpMessage;
}  // namespace bgps::bmp

namespace bgps::pool {

class LiveSource {
 public:
  struct Options {
    // Directory receiving the spool segment `live.mrt`, which every
    // micro-dump is appended to (created if absent).
    std::string spool_dir;
    // Provenance stamped on every published dump file.
    std::string project = "live";
    std::string collector = "live";
    // Most records per micro-dump: the flush threshold while the
    // consumer is busy. A waiting consumer gets pending records at once.
    size_t flush_records = 64;
    // Shared record-budget ledger (null = unbounded pending buffer; a
    // production live tenant always passes the pool's governor).
    std::shared_ptr<core::MemoryGovernor> governor;
    // Unused; kept only because perfbench still sets it.
    std::shared_ptr<core::Executor> executor;
  };

  struct Stats {
    size_t messages_decoded = 0;  // well-formed BMP messages / JSON lines
    size_t fsm_records = 0;       // Peer Up/Down -> STATE_CHANGE records
    size_t corrupt_frames = 0;    // garbled frames / malformed lines skipped
    size_t framing_losses = 0;    // byte-stream desyncs (connection dropped)
    size_t records_spooled = 0;   // MRT records written to micro-dumps
    size_t dumps_published = 0;   // micro-dumps pushed to the feed
    size_t parks = 0;             // times ingestion blocked on the governor
    size_t pending_records = 0;   // decoded records not yet flushed
    size_t buffered_bytes = 0;    // partial-frame bytes awaiting more input
  };

  // Validates options (spool_dir required, flush_records >= 1) and
  // creates the spool directory. The segment is opened at the first
  // flush.
  static Result<std::unique_ptr<LiveSource>> Create(Options options);

  LiveSource(const LiveSource&) = delete;
  LiveSource& operator=(const LiveSource&) = delete;
  // Releases any still-pending governor leases (the segment on disk is
  // the caller's to clean up, like any archive).
  ~LiveSource();

  // The data interface to hand to the live tenant's BgpStream
  // (SetLive + SetDataInterface). Owned by this source; valid for the
  // source's lifetime.
  core::LiveFeedInterface* feed() { return &feed_; }

  // BMP byte-feed ingestion at arbitrary chunk boundaries (a socket
  // read loop calls this with whatever recv returned). Blocks while the
  // governor budget is exhausted — that is the backpressure. Errors are
  // spool I/O or a poisoned governor; wire garbage is *not* an error
  // (counted in stats instead).
  Status IngestBmp(std::span<const uint8_t> bytes);

  // exabgp JSON line ingestion (one line, without the trailing '\n').
  // Malformed lines are counted and skipped (§3.3.3 tolerant parse).
  Status IngestExaBgpLine(const std::string& line);

  // Transport-level disconnect: drops a buffered partial frame and
  // clears a framing desync. Per-peer state survives (a reconnecting
  // session re-sends Peer Up anyway); records already decoded are kept.
  void NoteDisconnect();

  // Publishes pending records as a micro-dump now (no-op when none).
  // A failed append fails this flush and every later one, so no
  // micro-dump is ever published over a gap in the segment.
  Status Flush();

  // Flush + close the segment and the feed: the consuming stream ends
  // once it drains. Idempotent; ingestion after Close is rejected.
  Status Close();

  Stats stats() const;

 private:
  explicit LiveSource(Options options);

  // Decoded message -> MRT record bytes -> governed pending buffer.
  // Called on the ingest thread with mu_ NOT held.
  Status SpoolRecord(Timestamp ts, Bytes encoded);
  Status HandleBmp(const bmp::BmpMessage& msg);
  // Appends pending_ to the segment and publishes the range; mu_ held.
  Status FlushLocked();

  Options options_;
  // Flushes this source before its consumer waits. A failed flush is
  // latched in spool_status_ and reaches the session reader's next call.
  core::LiveFeedInterface feed_{[this] { (void)Flush(); }};

  mutable std::mutex mu_;
  Bytes buf_;            // undecoded partial-frame bytes (BMP mode)
  bool framing_lost_ = false;  // drop bytes until NoteDisconnect
  bool closed_ = false;
  // (timestamp, encoded MRT record) pending the next flush, in
  // ingestion order. Each entry holds one governor lease.
  std::vector<std::pair<Timestamp, Bytes>> pending_;
  size_t leases_ = 0;    // governor slots held for pending_
  // <spool_dir>/live.mrt, built at the first flush so that Create
  // does no stream set-up.
  std::optional<mrt::MrtFileWriter> segment_;
  uint64_t segment_bytes_ = 0;  // bytes appended and flushed so far
  Status spool_status_;         // the first failed open or append
  // local ASN learned from each peer's Peer Up OPEN, keyed by
  // (address, asn) — applied as the local_asn hint of subsequent
  // Route Monitoring / Peer Down records from that peer.
  std::map<std::pair<std::string, uint32_t>, uint32_t> peer_local_asn_;

  std::atomic<size_t> messages_decoded_{0};
  std::atomic<size_t> fsm_records_{0};
  std::atomic<size_t> corrupt_frames_{0};
  std::atomic<size_t> framing_losses_{0};
  std::atomic<size_t> records_spooled_{0};
  std::atomic<size_t> dumps_published_{0};
  std::atomic<size_t> parks_{0};
};

}  // namespace bgps::pool
