// BGPStream Broker — the meta-data provider (paper §3.2).
//
// The real Broker is a web service backed by SQL that continuously scrapes
// RouteViews / RIPE RIS, answers windowed queries ("which dump files match
// projects/collectors/types and overlap this interval?") and supports live
// processing by letting clients poll for files published after their last
// query. This in-process implementation preserves that contract:
//
//  * response windowing / overload protection — at most `window` seconds of
//    data (default 2 h, like the real broker) per response;
//  * load balancing — round-robin over mirror roots when rewriting paths;
//  * live support — files are visible only once their publish_time has
//    passed the broker clock (wall or virtual), and Rescan() discovers
//    newly written files like the scraper does;
//  * client-pull — the library alternates Query() and dump reads
//    (paper §3.3.2), so no input buffering is needed.
#pragma once

#include <functional>
#include <optional>

#include "broker/archive.hpp"

namespace bgps::broker {

struct BrokerQuery {
  std::vector<std::string> projects;    // empty = all
  std::vector<std::string> collectors;  // empty = all
  std::vector<DumpType> types;          // empty = both
  TimeInterval interval;                // end == kLiveEnd for live mode
};

struct BrokerResponse {
  std::vector<DumpFileMeta> files;  // sorted by (start, project, collector)
  // Cursor to pass to the next Query() call.
  Timestamp next_cursor = 0;
  // True if no further data can ever match (historical stream exhausted).
  bool exhausted = false;
  // Live only: true when the client should poll again later (data may still
  // be produced but nothing new is published yet).
  bool retry_later = false;
};

// Injectable clock so the simulator and tests can run virtual time.
using Clock = std::function<Timestamp()>;
Timestamp WallClock();

struct BrokerOptions {
  Timestamp window = 2 * 3600;  // max seconds of data per response
  Clock clock;                  // defaults to wall clock
  std::vector<std::string> mirrors;  // alternative roots (load balancing)
};

class Broker {
 public:
  using Options = BrokerOptions;

  explicit Broker(std::string archive_root, Options options = {});

  // Re-scrapes the archive (live mode calls this before each poll).
  Status Rescan() { return scan_status_ = index_.Rescan(); }

  // Outcome of the latest scrape, the constructor's included: NotFound
  // ("archive root <path>") when the root does not exist.
  const Status& scan_status() const { return scan_status_; }

  const ArchiveIndex& index() const { return index_; }

  // Returns dump files matching `query` whose interval overlaps
  // [cursor, cursor + window), where cursor starts at query.interval.start
  // (use response.next_cursor for follow-ups). RIB dumps that *start*
  // before the cursor but overlap the query interval are included in the
  // first response so a stream can bootstrap from the covering RIB.
  // Historical queries skip empty windows: when this window holds no
  // matching file, next_cursor is the window (on the cursor + k*window
  // grid) holding the next one, and the response is `exhausted` when no
  // matching file starts at or after the cursor.
  BrokerResponse Query(const BrokerQuery& query, Timestamp cursor);

  size_t queries_served() const { return queries_served_; }

 private:
  bool Matches(const BrokerQuery& q, const DumpFileMeta& f) const;
  std::string Rewrite(const std::string& path);

  ArchiveIndex index_;
  Status scan_status_;
  Options options_;
  size_t queries_served_ = 0;
  size_t mirror_rr_ = 0;
};

}  // namespace bgps::broker
