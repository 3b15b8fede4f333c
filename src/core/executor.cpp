#include "core/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace bgps::core {

namespace {
// Enqueue stamps order deadline-class dispatch. Urgent submissions take
// the low band so every urgent task sorts ahead of every normal one;
// within a band, earlier submissions sort first.
constexpr uint64_t kNormalBand = uint64_t(1) << 63;
}  // namespace

// One tenant's strictly-FIFO queue. Guarded by SharedState::mu.
struct Executor::Tenant::Queue {
  struct Task {
    std::function<void()> fn;
    uint64_t seq = 0;  // enqueue stamp (see kNormalBand)
  };

  std::deque<Task> tasks;
  size_t running = 0;  // tasks claimed by workers, not yet finished
  bool closed = false;
  std::condition_variable idle_cv;  // Tenant dtor waits for running == 0

  // Deficit-weighted round-robin: a visit of the dispatch cursor lets
  // the tenant drain up to `weight` tasks. `credit` is the remainder of
  // the current visit; it is only nonzero while the cursor is parked on
  // this queue.
  size_t weight = 1;
  size_t credit = 0;
  // Member of the deadline class of `weight`: visits claim the
  // earliest-stamped head across the class, not this queue's own head.
  bool deadline = false;

  size_t tasks_run = 0;  // per-tenant completion counter (stats)
};

// Shared between the Executor facade, the workers, and every Tenant —
// shared_ptr-owned so tenants stay valid no matter destruction order.
struct Executor::Tenant::SharedState {
  mutable std::mutex mu;
  std::condition_variable work_cv;  // workers: a task may be claimable
  std::vector<std::shared_ptr<Queue>> queues;  // registered tenants
  // Deadline tenants, keyed by weight (= class). Maintained by
  // CreateTenant / SetWeight / ~Tenant so a deadline claim scans only
  // its own class members — O(class) — instead of rescanning every
  // registered queue under the dispatch lock (O(tenants), which made
  // each claim of a small live class pay for every backfill tenant in
  // the process).
  std::unordered_map<size_t, std::vector<std::shared_ptr<Queue>>>
      deadline_classes;
  size_t rr = 0;  // round-robin cursor into `queues`
  uint64_t next_seq = 1;  // enqueue-stamp counter (both bands)
  size_t tasks_run = 0;
  size_t rounds = 0;  // completed dispatch-cursor rotations
  bool stopping = false;

  // Caller holds mu.
  void AddToClassLocked(const std::shared_ptr<Queue>& q) {
    deadline_classes[q->weight].push_back(q);
  }

  // Caller holds mu.
  void RemoveFromClassLocked(const std::shared_ptr<Queue>& q) {
    auto it = deadline_classes.find(q->weight);
    if (it == deadline_classes.end()) return;
    auto& members = it->second;
    members.erase(std::remove(members.begin(), members.end(), q),
                  members.end());
    if (members.empty()) deadline_classes.erase(it);
  }
};

Executor::Executor(Options options)
    : threads_(options.threads),
      state_(std::make_shared<Tenant::SharedState>()) {
  workers_.reserve(threads_);
  for (size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([st = state_] { WorkerLoop(st); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stopping = true;
  }
  state_->work_cv.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::WorkerLoop(const std::shared_ptr<Tenant::SharedState>& st) {
  std::unique_lock<std::mutex> lock(st->mu);
  while (true) {
    if (st->stopping) return;
    // Deficit-weighted round-robin from the cursor: a tenant with tasks
    // anchors a visit draining up to `weight` of them (the cursor parks
    // on it until the visit's credit or work runs out), then the cursor
    // moves on. Empty queues are skipped and their visit ends. Deadline
    // anchors widen each claim to the earliest-stamped head across
    // every same-weight deadline queue.
    std::shared_ptr<Tenant::Queue> claimed;
    size_t n = st->queues.size();
    bool wrapped = false;
    for (size_t i = 0; i < n; ++i) {
      size_t idx = (st->rr + i) % n;
      auto& q = st->queues[idx];
      if (q->tasks.empty()) {
        q->credit = 0;  // skipped: any in-progress visit is over
        continue;
      }
      if (st->rr + i >= n) wrapped = true;  // the scan passed the end
      if (q->credit == 0) {
        q->credit = std::max<size_t>(1, q->weight);  // a new visit begins
      }
      // This claim's pool of candidate tasks: the anchor's own queue,
      // or — for a deadline anchor — its whole weight class, drained
      // earliest-deadline-first.
      std::shared_ptr<Tenant::Queue> pick = q;
      size_t pool_tasks = q->tasks.size();
      if (q->deadline) {
        // O(class): the per-weight registry lists exactly the class's
        // members — the claim no longer rescans every registered queue
        // under the dispatch lock.
        pool_tasks = 0;
        auto cls = st->deadline_classes.find(q->weight);
        if (cls != st->deadline_classes.end()) {
          for (const auto& c : cls->second) {
            if (c->tasks.empty()) continue;
            pool_tasks += c->tasks.size();
            if (c->tasks.front().seq < pick->tasks.front().seq) pick = c;
          }
        }
      }
      claimed = pick;
      --q->credit;
      if (q->credit > 0 && pool_tasks > 1) {
        st->rr = idx;  // park: the visit continues with the next claim
      } else {
        q->credit = 0;
        st->rr = (idx + 1) % n;
        if (idx + 1 == n) wrapped = true;  // advanced past the end
      }
      break;
    }
    if (wrapped) ++st->rounds;
    if (!claimed) {
      st->work_cv.wait(lock);
      continue;
    }
    std::function<void()> task = std::move(claimed->tasks.front().fn);
    claimed->tasks.pop_front();
    ++claimed->running;
    lock.unlock();
    task();
    lock.lock();
    --claimed->running;
    ++st->tasks_run;
    ++claimed->tasks_run;
    if (claimed->closed && claimed->running == 0) {
      claimed->idle_cv.notify_all();
    }
  }
}

std::unique_ptr<Executor::Tenant> Executor::CreateTenant(
    TenantOptions options) {
  auto queue = std::make_shared<Tenant::Queue>();
  queue->weight = std::max<size_t>(1, options.weight);
  queue->deadline = options.deadline;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queues.push_back(queue);
    if (queue->deadline) state_->AddToClassLocked(queue);
  }
  return std::unique_ptr<Tenant>(new Tenant(state_, std::move(queue)));
}

Executor::Tenant::~Tenant() {
  std::unique_lock<std::mutex> lock(state_->mu);
  queue_->closed = true;
  queue_->tasks.clear();
  if (queue_->deadline) state_->RemoveFromClassLocked(queue_);
  queue_->idle_cv.wait(lock, [this] { return queue_->running == 0; });
  auto& qs = state_->queues;
  qs.erase(std::remove(qs.begin(), qs.end(), queue_), qs.end());
  if (state_->rr >= qs.size()) state_->rr = 0;
}

void Executor::Tenant::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (queue_->closed) return;
    queue_->tasks.push_back(
        {std::move(task), kNormalBand | state_->next_seq++});
  }
  state_->work_cv.notify_one();
}

void Executor::Tenant::SubmitUrgent(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (queue_->closed) return;
    // Behind earlier urgent tasks, ahead of every normal one — FIFO
    // within the band, so the queue front is always the tenant's
    // oldest urgent stamp (what deadline-class EDF compares).
    auto it = std::find_if(
        queue_->tasks.begin(), queue_->tasks.end(),
        [](const Queue::Task& t) { return (t.seq & kNormalBand) != 0; });
    queue_->tasks.insert(it, {std::move(task), state_->next_seq++});
  }
  state_->work_cv.notify_one();
}

void Executor::Tenant::SetWeight(size_t weight) {
  std::lock_guard<std::mutex> lock(state_->mu);
  size_t clamped = std::max<size_t>(1, weight);
  if (clamped == queue_->weight) return;
  // A deadline tenant changes class with its weight: keep the per-class
  // registry in lockstep so dispatch claims stay O(class).
  if (queue_->deadline) state_->RemoveFromClassLocked(queue_);
  queue_->weight = clamped;
  if (queue_->deadline) state_->AddToClassLocked(queue_);
}

size_t Executor::Tenant::weight() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return queue_->weight;
}

bool Executor::Tenant::deadline() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return queue_->deadline;
}

size_t Executor::Tenant::queued() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return queue_->tasks.size();
}

size_t Executor::Tenant::tasks_run() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return queue_->tasks_run;
}

size_t Executor::tasks_run() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->tasks_run;
}

size_t Executor::tenants() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->queues.size();
}

size_t Executor::dispatch_rounds() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->rounds;
}

}  // namespace bgps::core
