// On-disk dump archive: the stand-in for the RouteViews / RIPE RIS
// public repositories.
//
// Layout (mirrors the projects' per-collector trees):
//   <root>/<project>/<collector>/ribs/<start>.<duration>.<pubdelay>.mrt
//   <root>/<project>/<collector>/updates/<start>.<duration>.<pubdelay>.mrt
//
// Filenames carry the dump's nominal interval [start, start+duration) and
// the publication delay (seconds after interval end until the file appears
// on the "website") — the paper measured 99% of updates dumps available
// within 20 minutes of dump start; the simulator reproduces that with
// per-file delays.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/time.hpp"

namespace bgps::broker {

enum class DumpType { Rib, Updates };

const char* DumpTypeName(DumpType t);  // "ribs" / "updates"

struct DumpFileMeta {
  std::string project;
  std::string collector;
  DumpType type = DumpType::Updates;
  Timestamp start = 0;      // nominal interval start
  Timestamp duration = 0;   // nominal interval length (seconds)
  Timestamp publish_time = 0;  // when the file becomes visible
  std::string path;         // absolute path to the MRT file
  // The dump is the `length` bytes of `path` from `offset`; length 0
  // reads to the end of the file (archive dumps are whole files). A
  // live source's micro-dumps are consecutive ranges of one segment.
  uint64_t offset = 0;
  uint64_t length = 0;

  Timestamp end() const { return start + duration; }

  // Stable ordering: by time, then provenance (deterministic streams).
  auto key() const {
    return std::tie(start, project, collector, type, path, offset);
  }
  bool operator<(const DumpFileMeta& o) const { return key() < o.key(); }
  bool operator==(const DumpFileMeta& o) const { return key() == o.key(); }
};

// Composes the canonical archive-relative path for a dump file.
std::string ArchiveFileName(Timestamp start, Timestamp duration,
                            Timestamp publish_delay);
std::string ArchiveRelPath(const std::string& project,
                           const std::string& collector, DumpType type,
                           Timestamp start, Timestamp duration,
                           Timestamp publish_delay);

// Parses "<start>.<duration>.<pubdelay>.mrt"; returns false on mismatch.
bool ParseArchiveFileName(const std::string& name, Timestamp* start,
                          Timestamp* duration, Timestamp* publish_delay);

// In-memory index over an archive root. The real Broker keeps this in SQL
// and re-scrapes continuously; Rescan() plays that role (live mode re-scans
// to discover newly published files).
class ArchiveIndex {
 public:
  explicit ArchiveIndex(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }

  // Walks the directory tree and (re)builds the index.
  Status Rescan();

  // All files, sorted by (start, project, collector, type).
  const std::vector<DumpFileMeta>& files() const { return files_; }

  std::vector<std::string> projects() const;
  std::vector<std::string> collectors(const std::string& project) const;

 private:
  std::string root_;
  std::vector<DumpFileMeta> files_;
};

}  // namespace bgps::broker
