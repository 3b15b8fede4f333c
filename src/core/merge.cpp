#include "core/merge.hpp"

#include <algorithm>

namespace bgps::core {

std::vector<std::vector<broker::DumpFileMeta>> GroupOverlapping(
    std::vector<broker::DumpFileMeta> files) {
  std::sort(files.begin(), files.end());  // by start time first
  std::vector<std::vector<broker::DumpFileMeta>> subsets;

  // The paper's algorithm: (1) seed a subset with the oldest remaining
  // file; (2) recursively add files overlapping any file in the subset;
  // (3) remove them. With files sorted by start, a single left-to-right
  // sweep tracking the subset's max end implements the recursion: a file
  // overlaps the subset iff its start is before that max end.
  size_t i = 0;
  while (i < files.size()) {
    std::vector<broker::DumpFileMeta> subset;
    subset.push_back(files[i]);
    Timestamp max_end = files[i].end();
    size_t j = i + 1;
    while (j < files.size() && files[j].start < max_end) {
      subset.push_back(files[j]);
      max_end = std::max(max_end, files[j].end());
      ++j;
    }
    subsets.push_back(std::move(subset));
    i = j;
  }
  return subsets;
}

namespace {

// Streams records straight out of a DumpReader (decode on this thread).
class StreamingSource : public RecordSource {
 public:
  explicit StreamingSource(const broker::DumpFileMeta& meta) : reader_(meta) {}
  const broker::DumpFileMeta& meta() const override { return reader_.meta(); }
  std::optional<Timestamp> PeekTimestamp() override {
    return reader_.PeekTimestamp();
  }
  std::optional<Record> Next() override { return reader_.Next(); }

 private:
  DumpReader reader_;
};

}  // namespace

MultiWayMerge::MultiWayMerge(const std::vector<broker::DumpFileMeta>& files,
                             const FileOpenHook& hook) {
  sources_.reserve(files.size());
  for (const auto& f : files) {
    if (hook) hook(f);
    sources_.push_back(std::make_unique<StreamingSource>(f));
    Push(sources_.size() - 1);
  }
}

MultiWayMerge::MultiWayMerge(
    std::vector<std::unique_ptr<RecordSource>> sources)
    : sources_(std::move(sources)) {
  for (size_t i = 0; i < sources_.size(); ++i) Push(i);
}

void MultiWayMerge::Push(size_t idx) {
  if (auto ts = sources_[idx]->PeekTimestamp()) {
    int rank = sources_[idx]->meta().type == broker::DumpType::Rib ? 1 : 0;
    heap_.push(HeapItem{*ts, rank, idx});
  }
}

std::optional<Record> MultiWayMerge::Next() {
  if (heap_.empty()) return std::nullopt;
  HeapItem top = heap_.top();
  heap_.pop();
  std::optional<Record> rec = sources_[top.source_idx]->Next();
  Push(top.source_idx);
  return rec;
}

}  // namespace bgps::core
