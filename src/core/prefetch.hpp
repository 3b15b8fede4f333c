// Asynchronous prefetching decode stage (paper §3.1).
//
// The central live-mode requirement is that processing outpaces data
// generation. The synchronous stream interleaves file open + MRT decode
// with merge/filter/elem extraction on one thread, so every millisecond
// of retrieval latency (in the paper's deployment the dumps stream over
// HTTP from the RouteViews / RIPE RIS archives) stalls the consumer.
//
// PrefetchDecoder schedules open+decode as tasks on a shared
// core::Executor that run ahead of the consumer: while the application
// merges overlapping-subset N, decode tasks are already opening and
// decoding the files of subsets N+1..N+depth. BgpStream bounds how many
// subsets are in flight (Options::prefetch_subsets).
//
// The decoder is one *tenant* of the Executor (normally injected by
// bgps::StreamPool): many concurrent streams decode on one process-wide
// pool, each with a FIFO queue dispatched round-robin so a heavy stream
// cannot starve the others.
//
// Each file streams through a bounded per-file record buffer that decode
// tasks keep topped up while the consumer merges, so a ~500-file RIB
// subset (paper §3.3.4) never materializes whole files in RAM. Every
// buffered record leases one slot from the process-wide MemoryGovernor:
// a floor slot per file (acquired by the caller before Submit, ownership
// passes to the decoder) plus demand-driven extras the fill tasks
// TryAcquire (never blocking the shared Executor). Slots release per
// chunk, as the consumer drains.
//
// Records cross between threads a chunk at a time. A fill task decodes
// one chunk (at most kLegRecords, and at most half the file's buffer)
// with the lock released and appends it whole; the consumer's source
// swaps the oldest chunk out and reads it without locks. Each side
// calls the governor once per chunk, and the hand-off itself takes the
// decoder's lock once on each side. In a multi-file subset a file's
// first decode task yields after one record, so the merge's heap fills
// after one record per file instead of waiting behind the earlier
// files' bursts.
//
// A paused consumer keeps what it has buffered, and the leases with
// it, until it drains or drops its sources: at most
// max_records_in_flight records per in-flight subset, at least one per
// file.
//
// Ordering guarantee: NextSources() returns subsets in Submit() order,
// and within a subset sources preserve the submitted file order, so a
// MultiWayMerge built from them breaks ties exactly like the
// synchronous path and both paths emit identical record sequences.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/executor.hpp"
#include "core/governor.hpp"
#include "core/merge.hpp"

namespace bgps::core {

class PrefetchDecoder {
 public:
  struct Options {
    // Shared decode pool (see bgps::StreamPool). Required.
    std::shared_ptr<Executor> executor;
    // Global record-budget ledger for the chunked buffers. Required.
    // Contract: the caller must Acquire(subset.size()) floor slots
    // before each Submit; the decoder takes ownership and releases them.
    std::shared_ptr<MemoryGovernor> governor;
    // Invoked on the decoding thread just before each dump file opens.
    FileOpenHook file_open_hook;
    // Cap on records buffered in RAM per in-flight subset, split evenly
    // across its files (floor of one record per file). 0 = the
    // governor's capacity.
    size_t max_records_in_flight = 0;
    // Scheduling weight of this decoder's tenant queue: tasks drained
    // per dispatch visit relative to other tenants (clamped to >= 1).
    size_t tenant_weight = 1;
  };

  explicit PrefetchDecoder(Options options);
  // Abandons still-unclaimed queued files (the consumer is gone), lets
  // in-flight decodes finish, and releases the decoder's tenant queue
  // (and any governor slots it still holds). Chunked sources that
  // outlive the decoder keep serving their buffered records, then end
  // (truncated) — BgpStream never lets that happen.
  ~PrefetchDecoder();

  PrefetchDecoder(const PrefetchDecoder&) = delete;
  PrefetchDecoder& operator=(const PrefetchDecoder&) = delete;

  // Enqueues one overlapping-subset for decoding. Never blocks; the
  // caller (BgpStream) bounds the number of subsets in flight.
  void Submit(std::vector<broker::DumpFileMeta> subset);

  // Record sources for the oldest submitted subset, in file order
  // (FIFO: subsets come back in Submit order). Returns immediately with
  // live sources the decode tasks keep filling; their Peek/Next block
  // until a record or end-of-file. Precondition: outstanding() > 0.
  std::vector<std::unique_ptr<RecordSource>> NextSources();

  // Subsets submitted but not yet returned by NextSources().
  size_t outstanding() const;

  // Subsets still holding decode resources: queued ones plus handed-out
  // subsets whose files are not fully drained yet. BgpStream bounds
  // this by Options::prefetch_subsets.
  size_t in_flight() const;

  // Dump files decoded so far (stats for tests/benches).
  size_t files_decoded() const;

  // High watermark of records simultaneously buffered, counting the
  // chunks the consumer holds. Proves the memory bound in tests.
  size_t max_buffered_records() const;

  // Records currently leased: the per-file buffers plus the chunks the
  // consumer's sources hold. Stats for StreamPool introspection.
  size_t buffered_records() const;

  // Decode tasks queued on this decoder's tenant but not yet claimed.
  size_t queued_tasks() const;

  // Decode tasks completed for this decoder's tenant.
  size_t tenant_tasks_run() const;

 private:
  // Records one decode task (a "leg") decodes at most before it yields
  // the worker and re-queues itself. Short legs let a rival tenant's
  // task (a live micro-dump's decode) claim a worker within a few
  // microseconds: on perfbench's live workload (4-vCPU host) 8-record
  // legs read latency p99 about half that of 32-record legs, at ~80 %
  // of their backfill rate.
  static constexpr size_t kLegRecords = 8;

  // One file streaming through a bounded buffer. All fields are guarded
  // by State::mu except reader *while claimed*, which the claiming task
  // uses with the lock released.
  struct ChunkedFile {
    broker::DumpFileMeta meta;
    // Records the file may lease at once: `buffered` + `held`.
    size_t capacity = 1;
    // Decoded chunks not yet taken by the consumer, oldest first. Each
    // is one leg's output and is handed over whole.
    std::deque<std::vector<Record>> chunks;
    size_t buffered = 0;  // records in `chunks`
    // Records of the chunk the consumer's source holds. They stay
    // leased, and count toward capacity, until its next take.
    size_t held = 0;
    std::unique_ptr<DumpReader> reader;  // created by the first filler
    size_t slots = 0;        // governor slots held (floor + extras)
    // Records the fill task is decoding with the lock released, their
    // slots already leased; keeps a concurrent take from releasing
    // those in-flight leases (ReleaseSlotsLocked counts them).
    size_t decoding = 0;
    // The next decode leg yields after one record (the file's first leg
    // in a multi-file subset).
    bool lead = false;
    bool claimed = false;    // a fill task is queued or running
    bool done = false;       // reader exhausted (or truncated at shutdown)
    bool abandoned = false;  // the consumer dropped the source
  };

  // One submitted subset's files, in file order.
  using Subset = std::vector<std::shared_ptr<ChunkedFile>>;

  // Shared between the facade, the decode tasks, and any ChunkedSources
  // still held by a MultiWayMerge — shared_ptr-owned so sources stay
  // valid no matter the destruction order.
  struct State {
    FileOpenHook file_open_hook;
    std::shared_ptr<MemoryGovernor> governor;
    mutable std::mutex mu;
    std::condition_variable chunk_cv;  // consumer: records/EOF ready
    // Refill scheduling target; nulled (under mu) before the decoder
    // destroys it, so late refill requests are safely dropped.
    Executor::Tenant* tenant = nullptr;
    std::deque<Subset> queued;  // submission order, not handed out
    // Subsets handed to the consumer but still being filled.
    std::deque<Subset> active;
    size_t files_decoded = 0;
    size_t buffered = 0;      // records leased: chunks plus held ones
    size_t max_buffered = 0;  // high watermark of `buffered`
    bool stopping = false;
  };

  class ChunkedSource;

  // One leg of the fill of `cf` (claimed by the running task): decodes
  // one chunk and, while the file has room and the ledger granted the
  // chunk, re-queues itself in the same band (`urgent`), so no single
  // file's burst holds a worker for a whole buffer. The leg that reads
  // the file's last record also ends it. Runs as an Executor task and
  // never blocks on the governor. When the file is not open yet, the
  // task only performs the open and re-submits the first decode leg,
  // so another tenant's queued open need not wait behind this file's
  // decoding.
  static void FillChunked(const std::shared_ptr<State>& st,
                          const std::shared_ptr<ChunkedFile>& cf,
                          bool urgent);
  // Queues a fill task for `cf` on the decoder's tenant if it can make
  // progress and none is queued or running. Caller holds State::mu.
  // `urgent` puts the task at the front of the tenant queue (the
  // consumer may be blocked on this very file).
  static void ScheduleFill(const std::shared_ptr<State>& st,
                           const std::shared_ptr<ChunkedFile>& cf,
                           bool urgent);
  // Submits the next leg of `cf`'s claimed fill in the band `urgent`
  // names. Caller holds State::mu and has checked State::tenant.
  static void SubmitLeg(const std::shared_ptr<State>& st,
                        const std::shared_ptr<ChunkedFile>& cf, bool urgent);
  // True while `cf` may lease more records than it holds.
  static bool HasRoom(const ChunkedFile& cf);
  // Releases cf's governor slots down to what its buffer still needs.
  // Caller holds State::mu.
  static void ReleaseSlotsLocked(State& st, ChunkedFile& cf);
  // True while a handed-out subset still holds decode resources (any
  // file not yet decoded AND drained). in_flight() counts live subsets
  // toward the prefetch_subsets bound; PruneActiveLocked drops dead
  // ones — both must use this one predicate.
  static bool SubsetLive(const Subset& s);
  // Drops handed-out subsets whose files are all drained or abandoned.
  static void PruneActiveLocked(State& st);

  Options options_;
  std::shared_ptr<State> state_;
  std::unique_ptr<Executor::Tenant> tenant_;
};

}  // namespace bgps::core
