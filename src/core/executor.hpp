// Process-wide decode executor (runtime layer).
//
// The paper positions BGPStream as a framework many concurrent consumers
// run on top of: monitoring plugins, timely analyses, live dashboards.
// Before this layer existed every BgpStream spun up a private worker
// pool, so N tenants meant N× threads regardless of how many cores the
// host actually has. Executor is the process-shareable replacement: one
// fixed pool of workers serving any number of *tenants*, each with its
// own strictly-FIFO submission queue.
//
// Scheduling is deliberately work-stealing-free: workers dispatch
// round-robin across tenant queues in deficit-weighted fashion — each
// *visit* of the rotating cursor lets a tenant drain up to `weight`
// tasks before the cursor moves on, so a weight-4 live monitor drains
// ~4 tasks for every task of a weight-1 backfill, while a heavy tenant
// (a stream decoding a ~500-file RIB window) still cannot starve a
// light one entirely (every tenant is visited every rotation). Weight
// changes take effect at the tenant's next visit. Within a tenant,
// tasks run in submission order — the property the prefetch stage's
// ordering guarantee is built on. SubmitUrgent jumps a task ahead of
// its tenant's normal submissions — FIFO among urgent ones (used for
// refills the consumer is blocked on); it never jumps ahead of other
// tenants.
//
// Deadline classes: tenants created with TenantOptions::deadline form
// one class per weight value. Every task carries an enqueue stamp
// (urgent submissions stamp ahead of all normal ones); when the cursor
// visits a deadline tenant, each claim of that visit takes the
// earliest-stamped head across every same-weight deadline tenant
// instead of the anchor's own head. Per-tenant FIFO is untouched
// (claims always pop a queue's front), so output sequences are
// identical — earliest-deadline-first only changes *when* each live
// tenant's next task runs, bounding a blocked live consumer's wait by
// the number of older same-class tasks instead of the cursor distance.
// Class members are kept in a per-weight registry (maintained by
// CreateTenant / SetWeight / Tenant destruction), so each claim scans
// only its own class — O(class members) under the dispatch lock, not
// O(all registered tenants).
//
// Lifecycle: tenants may come and go freely (streams attach on Start,
// detach on destruction). Destroying a Tenant discards its queued tasks
// and blocks until its running ones finish. Destroying the Executor
// joins the workers after their current task; tenants may outlive the
// Executor (their queues simply never drain).
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace bgps::core {

class Executor {
 public:
  struct Options {
    // Worker threads. 0 constructs an executor that runs nothing —
    // useful only as a validation target (BgpStream::Start rejects it).
    size_t threads = 2;
  };

  // Per-tenant scheduling parameters (see CreateTenant).
  struct TenantOptions {
    // Tasks this tenant may drain per dispatch visit, relative to other
    // tenants (deficit-weighted round-robin). Clamped to >= 1.
    size_t weight = 1;
    // Joins the deadline class of this tenant's weight: visits to any
    // class member claim the earliest-enqueued head across the whole
    // class (earliest-deadline-first) instead of the visited queue's
    // own head. For live tenants whose latency should track enqueue
    // order, not cursor position. Fixed at creation.
    bool deadline = false;
  };

  explicit Executor(Options options);
  // Joins the workers after their current task; still-queued tasks are
  // discarded. Tenants may outlive the Executor.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // One tenant = one strictly-FIFO submission queue, scheduled
  // deficit-weighted round-robin against all other tenants. Obtained
  // from CreateTenant.
  class Tenant {
   public:
    // Discards still-queued tasks and blocks until this tenant's
    // running tasks finish; then detaches from the executor.
    ~Tenant();

    Tenant(const Tenant&) = delete;
    Tenant& operator=(const Tenant&) = delete;

    // Enqueues at the back of this tenant's queue. Never blocks.
    void Submit(std::function<void()> task);
    // Enqueues ahead of every normally-submitted task of this tenant,
    // behind its earlier urgent ones (FIFO within the urgent band).
    // For work the consumer is blocked on (chunked-buffer refills).
    // Does not preempt other tenants.
    void SubmitUrgent(std::function<void()> task);

    // Updates the scheduling weight (clamped to >= 1). Takes effect at
    // the tenant's next dispatch visit. For a deadline tenant this also
    // moves it to the new weight's deadline class. Thread-safe.
    void SetWeight(size_t weight);
    size_t weight() const;
    // Whether this tenant dispatches earliest-deadline-first within its
    // weight class (fixed at CreateTenant).
    bool deadline() const;

    // Tasks queued but not yet claimed by a worker.
    size_t queued() const;
    // Tasks completed for this tenant (stats).
    size_t tasks_run() const;

   private:
    friend class Executor;
    struct Queue;
    struct SharedState;
    Tenant(std::shared_ptr<SharedState> state, std::shared_ptr<Queue> queue)
        : state_(std::move(state)), queue_(std::move(queue)) {}

    std::shared_ptr<SharedState> state_;
    std::shared_ptr<Queue> queue_;
  };

  // Registers a new tenant queue. Thread-safe. (Two overloads instead
  // of a `= {}` default argument: TenantOptions' member initializers
  // are not parsed yet at this point of the enclosing class.)
  std::unique_ptr<Tenant> CreateTenant(TenantOptions options);
  std::unique_ptr<Tenant> CreateTenant() {
    return CreateTenant(TenantOptions{});
  }

  size_t threads() const { return threads_; }
  // Tasks completed so far, across all tenants (stats for tests).
  size_t tasks_run() const;
  // Currently registered tenants (stats for tests).
  size_t tenants() const;
  // Completed rotations of the dispatch cursor over the tenant set
  // (stats). Advances only with dispatched work.
  size_t dispatch_rounds() const;

 private:
  static void WorkerLoop(const std::shared_ptr<Tenant::SharedState>& st);

  size_t threads_;
  std::shared_ptr<Tenant::SharedState> state_;
  std::vector<std::thread> workers_;
};

}  // namespace bgps::core
