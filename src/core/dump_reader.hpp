// DumpReader: streams annotated Records out of one dump file.
//
// Responsibilities (paper §3.3.3):
//  * track the PEER_INDEX_TABLE of a TABLE_DUMP_V2 file so RIB records can
//    be decomposed into per-VP elems;
//  * mark the first/last record of the dump (DumpPosition) via one-record
//    lookahead;
//  * convert framing/decoding failures into Corrupted*/Unsupported records
//    instead of errors.
#pragma once

#include <functional>
#include <memory>

#include "core/arena.hpp"
#include "core/record.hpp"
#include "mrt/file.hpp"

namespace bgps::core {

// Invoked (on the decoding thread) just before a dump file is opened.
// Observability hook for stats/logging; the throughput bench also uses it
// to emulate remote-archive fetch latency, and tests use it to watch the
// prefetch stage work ahead of the consumer.
using FileOpenHook = std::function<void(const broker::DumpFileMeta&)>;

class DumpReader {
 public:
  // `meta` identifies the dump (its file, or a byte range of it);
  // opening failures yield a single CorruptedDump record (the paper
  // marks a record not-valid "when the BGP dump file cannot be opened").
  explicit DumpReader(broker::DumpFileMeta meta);

  const broker::DumpFileMeta& meta() const { return meta_; }

  // Timestamp of the next record without consuming it; nullopt at end.
  std::optional<Timestamp> PeekTimestamp();

  // Next record, or nullopt when the dump is exhausted.
  std::optional<Record> Next();

  // True once Next() has returned the dump's last record (its
  // lookahead found nothing more), so a caller need not ask again.
  bool done() const { return done_; }

  // Peer index table seen in this file (RIB dumps), for elem extraction.
  const mrt::PeerIndexTable* peer_index() const { return peer_index_.get(); }

  // Per-dump AS-path intern cache stats (tests/benches: hit rate shows
  // how much path decode work the arena pipeline elides).
  const bgp::AsPathCache& aspath_cache() const { return aspath_cache_; }

 private:
  // Produces the next record from the file, ignoring lookahead.
  std::optional<Record> Produce();
  Record MakeRecord() const;

  broker::DumpFileMeta meta_;
  mrt::MrtFileReader reader_;
  // Decode arena, the AS-path intern cache it backs, and the interned
  // provenance strings — all per dump, all freed together when the
  // reader (and therefore the dump) is done. Records never point into
  // the arena; they carry self-contained values (see core/arena.hpp).
  Arena arena_;
  bgp::AsPathCache aspath_cache_{&arena_};
  bgp::AttrDecodeCtx decode_ctx_{&aspath_cache_};
  InternedString project_;
  InternedString collector_;
  std::shared_ptr<const mrt::PeerIndexTable> peer_index_;
  std::optional<Record> lookahead_;
  bool started_ = false;
  bool done_ = false;
  bool open_failed_ = false;
  bool emitted_open_failure_ = false;
};

}  // namespace bgps::core
