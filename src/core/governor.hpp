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
// Deadlock discipline: Executor workers never block here. Decode tasks
// only ever TryAcquire; the blocking Acquire belongs to threads that
// own no decode work — a stream's consumer thread (a subset's floor
// slots, one per file, taken only while the stream holds no undrained
// buffers, so the capacity it waits for is releasable by other
// tenants) and a live source's session-reader thread (its park). A
// paused consumer keeps the leases of what it has buffered until it
// resumes or is destroyed.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>

#include "util/result.hpp"

namespace bgps::core {

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

  // OK while the ledger is consistent; after an over-release it carries
  // the exact double-release diagnostic, permanently.
  Status health() const;

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

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Waiter*> waiters_;  // FIFO; entries live on Acquire stacks
  size_t in_use_ = 0;
  size_t max_in_use_ = 0;
  Status health_;  // latched by the first over-release
};

}  // namespace bgps::core
