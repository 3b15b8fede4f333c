// Sorted-stream generation (paper §3.3.4).
//
// Collectors write records with monotonically increasing timestamps within
// a file, but a stream mixing collectors / dump types needs record-level
// sorting. libBGPStream performs a multi-way merge over the files of a
// broker response, after breaking the file set into disjoint subsets of
// overlapping time intervals so each heap stays small (the paper reports
// dump-file sets of up to ~500 files collapsing to subsets of ~150).
#pragma once

#include <queue>

#include "core/dump_reader.hpp"

namespace bgps::core {

// Partitions `files` into disjoint subsets such that files with
// overlapping [start, end) intervals share a subset, using the paper's
// iterative algorithm: seed with the oldest file, recursively add
// overlapping files, remove, repeat. Subsets come back ordered by their
// earliest start, each internally sorted.
std::vector<std::vector<broker::DumpFileMeta>> GroupOverlapping(
    std::vector<broker::DumpFileMeta> files);

// A per-file record cursor the merge pulls from: either a streaming
// DumpReader (synchronous path) or a bounded buffer the prefetching
// decode stage keeps filling. Both yield the identical record sequence.
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual const broker::DumpFileMeta& meta() const = 0;
  virtual std::optional<Timestamp> PeekTimestamp() = 0;
  virtual std::optional<Record> Next() = 0;
};

// Multi-way merge over one subset: opens all files simultaneously and
// repeatedly extracts the oldest record (Figure 3).
class MultiWayMerge {
 public:
  // Streaming path: opens a DumpReader per file (invoking `hook`, if set,
  // before each open) and decodes on the consumer thread.
  explicit MultiWayMerge(const std::vector<broker::DumpFileMeta>& files,
                         const FileOpenHook& hook = nullptr);

  // Prefetched path: merges any record sources (the prefetch stage
  // hands back its live sources in submitted-file order, so tie-breaks
  // match the streaming path). May block in PeekTimestamp until each
  // source has its first record available.
  explicit MultiWayMerge(std::vector<std::unique_ptr<RecordSource>> sources);

  // Next record in timestamp order; nullopt when all files are drained.
  std::optional<Record> Next();

  size_t open_files() const { return sources_.size(); }

 private:
  struct HeapItem {
    Timestamp ts;
    // Tie-break at equal timestamps: updates before RIB records. A RIB
    // dump snapshots state *including* same-instant updates, so consumers
    // must see those updates first to stay consistent.
    int type_rank;  // 0 = updates, 1 = rib
    size_t source_idx;
    bool operator>(const HeapItem& o) const {
      return std::tie(ts, type_rank, source_idx) >
             std::tie(o.ts, o.type_rank, o.source_idx);
    }
  };

  void Push(size_t idx);

  std::vector<std::unique_ptr<RecordSource>> sources_;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
};

}  // namespace bgps::core
