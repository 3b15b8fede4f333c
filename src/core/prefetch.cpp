#include "core/prefetch.hpp"

#include <algorithm>

namespace bgps::core {

// Drains one ChunkedFile's bounded buffer as a RecordSource, a chunk at
// a time: Peek and Next read the chunk this source owns without a lock,
// and only a drained chunk goes back to State::mu for the next one. The
// decode tasks refill the buffer (via State::active) while the consumer
// merges.
class PrefetchDecoder::ChunkedSource : public RecordSource {
 public:
  ChunkedSource(std::shared_ptr<State> st, std::shared_ptr<ChunkedFile> cf)
      : st_(std::move(st)), cf_(std::move(cf)) {}

  ~ChunkedSource() override {
    std::lock_guard<std::mutex> lock(st_->mu);
    cf_->abandoned = true;
    st_->buffered -= cf_->buffered + cf_->held;
    cf_->chunks.clear();
    cf_->buffered = 0;
    cf_->held = 0;
    ReleaseSlotsLocked(*st_, *cf_);
    if (!cf_->claimed) {
      // No task holds the reader; a claimed one cleans up on unclaim.
      cf_->reader.reset();
      cf_->done = true;
    }
  }

  const broker::DumpFileMeta& meta() const override { return cf_->meta; }

  std::optional<Timestamp> PeekTimestamp() override {
    if (next_ == chunk_.size() && !Take()) return std::nullopt;
    return chunk_[next_].timestamp;
  }

  std::optional<Record> Next() override {
    if (next_ == chunk_.size() && !Take()) return std::nullopt;
    return std::move(chunk_[next_++]);
  }

 private:
  // Swaps the drained chunk for the file's oldest buffered one, blocking
  // until a chunk or the end of the file. False at the end.
  bool Take() {
    chunk_.clear();
    next_ = 0;
    std::unique_lock<std::mutex> lock(st_->mu);
    // Return the drained chunk's slots to the global budget (keeping
    // the file's floor until it completes) before any wait: a fill that
    // this wait needs may need them.
    st_->buffered -= cf_->held;
    cf_->held = 0;
    ReleaseSlotsLocked(*st_, *cf_);
    // Takes schedule the refill before the buffer runs dry; the urgent
    // submit here is a backstop for a wait that finds no fill queued or
    // running.
    while (cf_->chunks.empty() && !cf_->done) {
      if (!cf_->claimed) ScheduleFill(st_, cf_, /*urgent=*/true);
      st_->chunk_cv.wait(lock);
    }
    if (cf_->chunks.empty()) return false;
    chunk_.swap(cf_->chunks.front());
    cf_->chunks.pop_front();
    cf_->buffered -= chunk_.size();
    cf_->held = chunk_.size();
    // Top the buffer back up while this chunk drains — urgent, since the
    // merge heap will come back for this file.
    if (HasRoom(*cf_)) ScheduleFill(st_, cf_, /*urgent=*/true);
    return true;
  }

  std::shared_ptr<State> st_;
  std::shared_ptr<ChunkedFile> cf_;
  std::vector<Record> chunk_;  // owned by this source; read without locks
  size_t next_ = 0;            // chunk_'s next unread record
};

void PrefetchDecoder::ScheduleFill(const std::shared_ptr<State>& st,
                                   const std::shared_ptr<ChunkedFile>& cf,
                                   bool urgent) {
  if (st->stopping || st->tenant == nullptr) return;
  if (cf->claimed || cf->done || cf->abandoned) return;
  cf->claimed = true;
  SubmitLeg(st, cf, urgent);
}

void PrefetchDecoder::SubmitLeg(const std::shared_ptr<State>& st,
                                const std::shared_ptr<ChunkedFile>& cf,
                                bool urgent) {
  // The task remembers its band: every later leg of this claim (see
  // FillChunked) stays in the band the fill was scheduled in.
  auto task = [st, cf, urgent] { FillChunked(st, cf, urgent); };
  if (urgent) {
    st->tenant->SubmitUrgent(std::move(task));
  } else {
    st->tenant->Submit(std::move(task));
  }
}

bool PrefetchDecoder::HasRoom(const ChunkedFile& cf) {
  return cf.buffered + cf.held < cf.capacity;
}

PrefetchDecoder::PrefetchDecoder(Options options)
    : options_(std::move(options)), state_(std::make_shared<State>()) {
  state_->file_open_hook = options_.file_open_hook;
  state_->governor = options_.governor;
  if (options_.max_records_in_flight == 0) {
    options_.max_records_in_flight = options_.governor->capacity();
  }
  tenant_ = options_.executor->CreateTenant(options_.tenant_weight);
  state_->tenant = tenant_.get();
}

PrefetchDecoder::~PrefetchDecoder() {
  {
    // Stop fill loops early and stop refill scheduling; queued tasks
    // are discarded by the tenant below, running ones finish.
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stopping = true;
    state_->tenant = nullptr;
  }
  tenant_.reset();
  // Truncate still-undone files so sources that outlive the decoder
  // drain their buffers and then end instead of hanging, and hand every
  // governor slot back to the global budget.
  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto* subsets : {&state_->queued, &state_->active}) {
    for (const Subset& subset : *subsets) {
      for (const auto& cf : subset) {
        cf->done = true;
        if (cf->slots > 0) {
          state_->governor->Release(cf->slots);
          cf->slots = 0;
        }
      }
    }
  }
  state_->chunk_cv.notify_all();
}

void PrefetchDecoder::Submit(std::vector<broker::DumpFileMeta> subset) {
  size_t cap = std::max<size_t>(
      1, options_.max_records_in_flight / std::max<size_t>(1, subset.size()));
  Subset files;
  files.reserve(subset.size());
  for (auto& f : subset) {
    auto cf = std::make_shared<ChunkedFile>();
    cf->meta = std::move(f);
    cf->capacity = cap;
    // The caller acquired one floor slot per file (see Options::governor
    // contract); the decoder owns them from here on.
    cf->slots = 1;
    // The merge needs every file's first record before it emits one.
    cf->lead = subset.size() > 1;
    files.push_back(std::move(cf));
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  PruneActiveLocked(*state_);
  for (auto& cf : files) ScheduleFill(state_, cf, /*urgent=*/false);
  state_->queued.push_back(std::move(files));
}

std::vector<std::unique_ptr<RecordSource>> PrefetchDecoder::NextSources() {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->queued.empty()) return {};
  Subset subset = std::move(state_->queued.front());
  state_->queued.pop_front();
  std::vector<std::unique_ptr<RecordSource>> out;
  out.reserve(subset.size());
  for (auto& cf : subset) {
    out.push_back(std::make_unique<ChunkedSource>(state_, cf));
  }
  state_->active.push_back(std::move(subset));
  PruneActiveLocked(*state_);
  return out;
}

size_t PrefetchDecoder::outstanding() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->queued.size();
}

size_t PrefetchDecoder::in_flight() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  size_t n = state_->queued.size();
  for (const Subset& subset : state_->active) {
    if (SubsetLive(subset)) ++n;
  }
  return n;
}

size_t PrefetchDecoder::files_decoded() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->files_decoded;
}

size_t PrefetchDecoder::max_buffered_records() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->max_buffered;
}

size_t PrefetchDecoder::buffered_records() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->buffered;
}

size_t PrefetchDecoder::queued_tasks() const {
  return tenant_ ? tenant_->queued() : 0;
}

size_t PrefetchDecoder::tenant_tasks_run() const {
  return tenant_ ? tenant_->tasks_run() : 0;
}

bool PrefetchDecoder::SubsetLive(const Subset& subset) {
  // Leased records count even after EOF: the prefetch_subsets memory
  // bound must not admit an extra subset while buffers are still full.
  for (const auto& cf : subset) {
    if (!cf->done || cf->buffered + cf->held > 0) return true;
  }
  return false;
}

void PrefetchDecoder::PruneActiveLocked(State& st) {
  // Front-only pruning keeps consumption order simple.
  while (!st.active.empty() && !SubsetLive(st.active.front())) {
    st.active.pop_front();
  }
}

void PrefetchDecoder::ReleaseSlotsLocked(State& st, ChunkedFile& cf) {
  if (cf.slots == 0) return;
  // A completed-and-drained (or abandoned) file needs nothing; a live
  // one needs one slot per leased record (plus one for each record the
  // fill task is decoding right now) and its floor.
  size_t leased = cf.buffered + cf.held;
  size_t target;
  if (cf.abandoned || (cf.done && leased == 0)) {
    target = 0;
  } else {
    target = std::max<size_t>(cf.done ? 0 : 1, leased + cf.decoding);
  }
  if (cf.slots > target) {
    st.governor->Release(cf.slots - target);
    cf.slots = target;
  }
}

void PrefetchDecoder::FillChunked(const std::shared_ptr<State>& st,
                                  const std::shared_ptr<ChunkedFile>& cfp,
                                  bool urgent) {
  ChunkedFile& cf = *cfp;
  std::vector<Record> chunk;  // before the lock: a dropped chunk frees unlocked
  std::unique_lock<std::mutex> lock(st->mu);
  bool opened = false;
  if (!cf.reader && !cf.done && !cf.abandoned && !st->stopping) {
    opened = true;
    broker::DumpFileMeta meta = cf.meta;
    lock.unlock();
    if (st->file_open_hook) st->file_open_hook(meta);
    auto reader = std::make_unique<DumpReader>(std::move(meta));
    lock.lock();
    cf.reader = std::move(reader);
  }
  // Head-of-line split: the open above (archive-latency bound — in the
  // paper's deployment an HTTP fetch) and the decode legs below (CPU
  // bound) run as separate tasks. The first leg goes back to this
  // tenant's queue in the same band, so the worker is released after
  // the open and a rival tenant whose open is queued can get its
  // round-robin turn before this file decodes. cf stays claimed — each
  // continuation task is the claim's next leg, so no duplicate fill can
  // schedule.
  bool fillable = !st->stopping && !cf.abandoned && !cf.done;
  if (opened && fillable && st->tenant != nullptr) {
    SubmitLeg(st, cfp, urgent);
    return;
  }
  bool requeue = false;
  bool wake = false;  // a take waiting on this file may proceed
  if (fillable && HasRoom(cf)) {
    // One chunk per leg, at most half the buffer so the consumer's
    // chunk and the next one fit together; a lead leg yields after one
    // record.
    size_t leased = cf.buffered + cf.held;
    size_t want = cf.lead ? 1
                          : std::min({kLegRecords,
                                      std::max<size_t>(1, cf.capacity / 2),
                                      cf.capacity - leased});
    // Lease the chunk's slots *before* decoding it, with one TryAcquire
    // (never blocking the shared Executor). A record rides on the
    // file's floor slot when nothing else is leased. When the global
    // budget cannot cover the chunk, decode one record on a spare or
    // single slot; with none, stop filling — takes re-schedule us.
    size_t spare = cf.slots - std::min(cf.slots, leased);
    size_t n = want;
    if (want > spare && !st->governor->TryAcquire(want - spare)) {
      n = (spare > 0 || st->governor->TryAcquire(1)) ? 1 : 0;
    }
    cf.slots = std::max(cf.slots, leased + n);
    if (n > 0) {
      cf.decoding = n;
      DumpReader& reader = *cf.reader;
      lock.unlock();
      chunk.reserve(n);
      bool eof = false;
      while (chunk.size() < n) {
        std::optional<Record> rec = reader.Next();
        if (!rec) {
          eof = true;
          break;
        }
        chunk.push_back(std::move(*rec));
        // The reader's lookahead already knows whether that was the
        // last record: end the file in this leg, not the next.
        if (reader.done()) {
          eof = true;
          break;
        }
      }
      lock.lock();
      // Holding the lock through the append below: no take can
      // interleave between clearing the in-flight mark and the slots
      // becoming buffered records'.
      cf.decoding = 0;
      cf.lead = false;
      if (eof) {
        cf.done = true;
        cf.reader.reset();  // release the file handle; nothing left to read
        ++st->files_decoded;
      }
      wake = eof;
      if (!cf.abandoned && !chunk.empty()) {
        // Wake a consumer blocked on this file right away instead of
        // making it wait for a full buffer.
        wake = wake || cf.chunks.empty();
        cf.buffered += chunk.size();
        st->buffered += chunk.size();
        st->max_buffered = std::max(st->max_buffered, st->buffered);
        cf.chunks.push_back(std::move(chunk));
      }
      requeue = n == want && !eof && !cf.abandoned && !st->stopping &&
                st->tenant != nullptr && HasRoom(cf);
    }
  }
  if (cf.abandoned) {
    cf.reader.reset();
    cf.done = true;
  }
  // Hand back any slot leased for a record that never materialized
  // (EOF, dropped chunk, shutdown) — and everything, once dead.
  ReleaseSlotsLocked(*st, cf);
  if (requeue) {
    SubmitLeg(st, cfp, urgent);
  } else {
    // Unclaimed: a waiting take must see it to schedule the next fill.
    cf.claimed = false;
    wake = true;
  }
  if (wake) st->chunk_cv.notify_all();
}

}  // namespace bgps::core
