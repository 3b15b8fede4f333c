// Global record-budget ledger (runtime layer).
//
// Chunked decode bounds how many records sit in RAM, but a per-stream
// bound split evenly across a subset's files budgets each stream (and
// each in-flight subset) for its own worst case, so N tenants would
// mean N× worst-case memory. MemoryGovernor adds demand-driven leases
// against one hard process-wide cap: a slot is charged when a record is
// buffered and released when the consumer drains it, wherever in the
// process that happens.
//
// Fairness: blocked Acquire() demands are served strictly FIFO — a
// large demand (the floor reservation for a ~500-file RIB subset)
// cannot be starved by a stream of small ones, because later demands
// (and TryAcquire) never barge past the head of the queue.
//
// Accounting discipline: releasing more slots than are currently
// leased is a double-release bug in the caller, not a condition to
// paper over — it would silently inflate the budget for everyone. The
// first over-release *poisons* the ledger: the exact diagnostic is
// latched (health()), every blocked Acquire wakes with it, and all
// further acquires fail, so the bug surfaces at BgpStream::status()
// instead of as unbounded memory growth.
//
// Zero-demand grants: Acquire(0) and TryAcquire(0) are unconditional
// no-ops — a zero-record MRT file must never block behind a full
// budget or a waiter queue.
//
// Deadlock discipline (how the decode pipeline uses this):
//  * Floor slots — one per file of a subset, acquired *before* the
//    subset is submitted for decode — guarantee every file can always
//    buffer at least one record, which is exactly what MultiWayMerge
//    needs to assemble its heap. The acquire happens on the consumer
//    thread, either opportunistically (TryAcquire, to work ahead) or
//    blocking (Acquire, only when the stream holds no undrained
//    buffers, so the capacity it waits for is always releasable by
//    other tenants).
//  * Extra slots — records beyond a file's first — are only ever taken
//    with TryAcquire from worker tasks, so steady-state decode never
//    blocks the shared Executor.
//  * The one worker-side blocking Acquire is the floor re-acquire when
//    a fully-reclaimed file resumes (idle reclaim returns *all* of a
//    parked tenant's slots, floors included, so a reclaimed-and-never-
//    resumed tenant pins nothing). That Acquire(1) queues FIFO behind
//    earlier demands, and it cannot deadlock even with every worker
//    blocked in it: a blocked demand's contention re-signals run
//    reclaim mark/confirm passes inline on the signaling thread
//    (Executor::RequestReclaimTick), so budget parked on other idle
//    tenants is peeled loose without needing a free worker.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace bgps::core {

class Executor;

class MemoryGovernor {
 public:
  // Lock-consistent stats snapshot (one mutex acquisition).
  struct Stats {
    size_t capacity = 0;
    size_t in_use = 0;
    size_t max_in_use = 0;
    size_t waiting = 0;
  };

  // `capacity` is the hard cap on slots (buffered records) simultaneously
  // leased across every stream and subset sharing this governor.
  explicit MemoryGovernor(size_t capacity) : capacity_(capacity) {}

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  size_t capacity() const { return capacity_; }

  // Blocks until `n` slots are granted. Demands are served strictly in
  // arrival order (fair FIFO wakeup, no barging). n == 0 is granted
  // unconditionally, without queueing. Error (and no grant) if n
  // exceeds the capacity outright — it could never be satisfied — or
  // if the ledger is poisoned (see health()).
  Status Acquire(size_t n);

  // Non-blocking: grants only when `n` slots are free AND no earlier
  // Acquire() demand is waiting (no barging past the queue). n == 0 is
  // granted unconditionally. False on a poisoned ledger.
  bool TryAcquire(size_t n);

  // Returns `n` slots to the pool and wakes eligible waiters in order.
  // Releasing more than is leased poisons the ledger (see health()).
  void Release(size_t n);

  // Registers a contention hook, invoked (with the governor lock
  // released) while a blocked Acquire() demand exists that the current
  // capacity cannot grant: once when the demand parks, then on a short
  // re-signal interval for as long as it stays blocked. This is the
  // waiter-driven reclaim trigger's signal — StreamPool and any
  // PrefetchDecoder with a reclaim policy wire it to
  // Executor::RequestReclaimTick(), whose mark/confirm protocol fires
  // a tenant only after ~idle_rounds uncontested aging intervals (so
  // the re-signals stand in for dispatch rounds while the pool is
  // stalled, and a lone transient signal can never reclaim anything).
  // The re-signal cost is borne entirely by the blocked waiter; an
  // uncontended process never wakes. A hook returns whether it is
  // still alive; returning false removes it (capture weak_ptrs to
  // anything shorter-lived than the governor and expire with them).
  // Not fired by TryAcquire denials or Releases: opportunistic probes
  // and routine pops are not distress. Returns a handle for
  // RemoveContentionHook (0 for a null hook).
  uint64_t AddContentionHook(std::function<bool()> hook);

  // Deregisters a hook by its AddContentionHook handle. Owners whose
  // governor may never contend (so the self-prune on fire never runs)
  // call this from their destructor to keep the hook list bounded
  // under stream churn; a copy of the hook already being fired may
  // still run once more, so hooks must stay safely callable (weak_ptr
  // captures) regardless.
  void RemoveContentionHook(uint64_t id);

  // OK while the ledger is consistent; after an over-release it carries
  // the exact double-release diagnostic, permanently.
  Status health() const;

  // Currently registered contention hooks (proves hook dedup in tests).
  size_t contention_hook_count() const;

  // Slots currently leased.
  size_t in_use() const;
  // High watermark of in_use() — proves the hard cap in tests.
  size_t max_in_use() const;
  // Blocked Acquire() demands (stats for tests).
  size_t waiting() const;
  Stats snapshot() const;

 private:
  struct Waiter {
    size_t n;
    bool granted = false;
    std::condition_variable cv;
  };

  // Grants queued demands head-of-line-first while capacity allows.
  // Caller holds mu_.
  void GrantLocked();

  // Fires the registered hooks and prunes the ones that report
  // themselves dead. Must be called with mu_ NOT held (hooks take the
  // executor's lock).
  void FireContentionHooks();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Waiter*> waiters_;  // FIFO; entries live on Acquire stacks
  std::vector<std::pair<uint64_t, std::function<bool()>>> contention_hooks_;
  uint64_t next_hook_id_ = 1;
  size_t in_use_ = 0;
  size_t max_in_use_ = 0;
  Status health_;  // latched by the first over-release
};

// Deduplicates the waiter-driven reclaim trigger: every component that
// wants "contention on governor G should tick reclaim on executor E"
// used to register its own contention hook, so K decoders sharing one
// executor fired K redundant RequestReclaimTick calls per re-signal and
// grew the governor's hook list K-wide. The registry keys one shared
// hook on the (governor, executor) pair; callers hold a Share, and the
// hook is registered on the first Acquire and deregistered when the
// last Share for the pair drops. The hook itself is the same as before:
// weak-captured, fires Executor::RequestReclaimTick(), self-prunes once
// the executor (or the last Share) is gone.
class ReclaimTickRegistry {
 public:
  // Opaque refcount on the pair's shared hook. reset() (or destruction)
  // drops this holder's interest; the underlying hook is removed when
  // the last holder lets go.
  using Share = std::shared_ptr<void>;

  // Registers (or joins) the shared contention hook tying `governor`
  // contention to `executor` reclaim ticks. Null inputs yield an empty
  // Share and register nothing.
  static Share Acquire(const std::shared_ptr<MemoryGovernor>& governor,
                       const std::shared_ptr<Executor>& executor);
};

}  // namespace bgps::core
