#include "core/governor.hpp"

#include <algorithm>
#include <string>

namespace bgps::core {

void MemoryGovernor::GrantLocked() {
  if (!health_.ok()) return;  // poisoned: nobody is granted anything
  while (!waiters_.empty() && in_use_ + waiters_.front()->n <= capacity_) {
    Waiter* w = waiters_.front();
    waiters_.pop_front();
    in_use_ += w->n;
    max_in_use_ = std::max(max_in_use_, in_use_);
    w->granted = true;
    w->cv.notify_one();
  }
}

Status MemoryGovernor::Acquire(size_t n) {
  if (n == 0) return OkStatus();  // zero demand: unconditional no-op grant
  std::unique_lock<std::mutex> lock(mu_);
  if (!health_.ok()) return health_;
  if (n > capacity_) {
    return InvalidArgument("MemoryGovernor: demand of " + std::to_string(n) +
                           " records exceeds the budget of " +
                           std::to_string(capacity_));
  }
  Waiter w;
  w.n = n;
  waiters_.push_back(&w);
  GrantLocked();
  w.cv.wait(lock, [&] { return w.granted || !health_.ok(); });
  if (w.granted) return OkStatus();
  // Poisoned while waiting: withdraw the demand before unwinding (the
  // Waiter lives on this stack frame).
  waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &w),
                 waiters_.end());
  return health_;
}

bool MemoryGovernor::TryAcquire(size_t n) {
  if (n == 0) return true;  // zero demand: unconditional no-op grant
  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return false;
  if (!waiters_.empty() || in_use_ + n > capacity_) return false;
  in_use_ += n;
  max_in_use_ = std::max(max_in_use_, in_use_);
  return true;
}

void MemoryGovernor::Release(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!health_.ok()) return;  // ledger already poisoned; keep the evidence
  if (n > in_use_) {
    // Double-release accounting bug in a caller. Clamping would quietly
    // inflate the budget for every tenant; poison the ledger instead so
    // the bug surfaces through BgpStream::status().
    health_ = InvalidArgument(
        "MemoryGovernor: released " + std::to_string(n) +
        " slots but only " + std::to_string(in_use_) +
        " are leased (double release)");
    for (Waiter* w : waiters_) w->cv.notify_one();
    return;
  }
  in_use_ -= n;
  GrantLocked();
}

Status MemoryGovernor::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

size_t MemoryGovernor::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

size_t MemoryGovernor::max_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_in_use_;
}

size_t MemoryGovernor::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.size();
}

MemoryGovernor::Stats MemoryGovernor::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {capacity_, in_use_, max_in_use_, waiters_.size()};
}

}  // namespace bgps::core
