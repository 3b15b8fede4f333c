#include "broker/broker.hpp"

#include <algorithm>
#include <chrono>

#include "util/strings.hpp"

namespace bgps::broker {

Timestamp WallClock() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Broker::Broker(std::string archive_root, Options options)
    : index_(std::move(archive_root)), options_(std::move(options)) {
  if (!options_.clock) options_.clock = WallClock;
  scan_status_ = index_.Rescan();
}

bool Broker::Matches(const BrokerQuery& q, const DumpFileMeta& f) const {
  if (!q.projects.empty() &&
      std::find(q.projects.begin(), q.projects.end(), f.project) ==
          q.projects.end())
    return false;
  if (!q.collectors.empty() &&
      std::find(q.collectors.begin(), q.collectors.end(), f.collector) ==
          q.collectors.end())
    return false;
  if (!q.types.empty() &&
      std::find(q.types.begin(), q.types.end(), f.type) == q.types.end())
    return false;
  return q.interval.overlaps(f.start, f.end());
}

std::string Broker::Rewrite(const std::string& path) {
  if (options_.mirrors.empty()) return path;
  // Round-robin across mirrors: swap the archive root for a mirror root.
  const std::string& mirror = options_.mirrors[mirror_rr_++ %
                                               options_.mirrors.size()];
  if (StartsWith(path, index_.root()))
    return mirror + path.substr(index_.root().size());
  return path;
}

BrokerResponse Broker::Query(const BrokerQuery& query, Timestamp cursor) {
  ++queries_served_;
  BrokerResponse resp;
  const Timestamp now = options_.clock();
  const bool live = query.interval.live();
  const bool first = cursor <= query.interval.start;
  if (first) cursor = query.interval.start;

  const Timestamp window_end = cursor + options_.window;

  // In-window candidates. The first response also admits files starting
  // before the cursor (a covering RIB dump).
  std::vector<const DumpFileMeta*> candidates;
  // Earliest start of matching data beyond this window, if any.
  std::optional<Timestamp> next_start;
  for (const auto& f : index_.files()) {
    if (!Matches(query, f)) continue;
    bool in_window =
        first ? f.start < window_end
              : (f.start >= cursor && f.start < window_end);
    if (!in_window) {
      if (f.start >= window_end && (!next_start || f.start < *next_start))
        next_start = f.start;
      continue;
    }
    candidates.push_back(&f);
  }

  if (!live) {
    for (const auto* f : candidates) resp.files.push_back(*f);
    for (auto& f : resp.files) f.path = Rewrite(f.path);
    std::sort(resp.files.begin(), resp.files.end());
    resp.next_cursor = window_end;
    if (resp.files.empty()) {
      // Skip the empty windows in between: jump to the window (still on
      // the cursor + k*window grid) holding the next matching file, or
      // end the stream when there is none.
      if (next_start) {
        resp.next_cursor = cursor + (*next_start - cursor) /
                                        options_.window * options_.window;
      } else {
        resp.exhausted = true;
      }
    }
    return resp;
  }

  // Live mode: dumps publish out of order across collectors (a RIB that
  // takes hours to appear must not block the 5-minute updates dumps of
  // the other collectors). Each (collector, type) track keeps its own
  // publication frontier: files behind the track's earliest unpublished
  // file are served; later ones wait. Because the cursor can move back to
  // the earliest frontier, clients deduplicate served files by path.
  std::map<std::tuple<std::string, std::string, DumpType>, Timestamp>
      frontier;
  for (const auto* f : candidates) {
    if (f->publish_time <= now) continue;
    auto key = std::make_tuple(f->project, f->collector, f->type);
    auto it = frontier.find(key);
    if (it == frontier.end() || f->start < it->second) frontier[key] = f->start;
  }
  std::optional<Timestamp> min_frontier;
  for (const auto& [key, start] : frontier) {
    if (!min_frontier || start < *min_frontier) min_frontier = start;
  }

  for (const auto* f : candidates) {
    if (f->publish_time > now) continue;
    auto key = std::make_tuple(f->project, f->collector, f->type);
    auto it = frontier.find(key);
    if (it != frontier.end() && f->start >= it->second) continue;
    resp.files.push_back(*f);
  }
  for (auto& f : resp.files) f.path = Rewrite(f.path);
  std::sort(resp.files.begin(), resp.files.end());

  if (!resp.files.empty()) {
    resp.next_cursor = min_frontier ? std::min(window_end, *min_frontier)
                                    : window_end;
    return resp;
  }
  if (min_frontier) {
    // Data exists in this window but is not published yet: poll, then
    // retry from the frontier.
    resp.retry_later = true;
    resp.next_cursor = std::min(cursor, *min_frontier);
    return resp;
  }
  if (next_start) {
    // Window empty but newer data exists: advance.
    resp.next_cursor = window_end;
    return resp;
  }
  // Nothing at all yet: poll and retry the same window.
  resp.retry_later = true;
  resp.next_cursor = cursor;
  return resp;
}

}  // namespace bgps::broker
