// Tests of the global record-budget ledger (runtime layer): the hard
// cap, blocked acquires with FIFO-fair wakeup (no barging), and the
// stats the stress tests rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/governor.hpp"

namespace bgps::core {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool WaitFor(Pred pred, std::chrono::seconds deadline = 10s) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(MemoryGovernorTest, TryAcquireEnforcesTheHardCap) {
  MemoryGovernor gov(4);
  EXPECT_EQ(gov.capacity(), 4u);
  EXPECT_TRUE(gov.TryAcquire(3));
  EXPECT_FALSE(gov.TryAcquire(2));  // 3 + 2 > 4
  EXPECT_TRUE(gov.TryAcquire(1));
  EXPECT_EQ(gov.in_use(), 4u);
  EXPECT_FALSE(gov.TryAcquire(1));
  gov.Release(2);
  EXPECT_EQ(gov.in_use(), 2u);
  EXPECT_TRUE(gov.TryAcquire(2));
  EXPECT_EQ(gov.max_in_use(), 4u);  // the watermark never exceeded the cap
  gov.Release(4);
  EXPECT_EQ(gov.in_use(), 0u);
}

TEST(MemoryGovernorTest, AcquireBlocksUntilReleased) {
  MemoryGovernor gov(4);
  ASSERT_TRUE(gov.TryAcquire(3));
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    EXPECT_TRUE(gov.Acquire(2).ok());
    granted = true;
  });
  ASSERT_TRUE(WaitFor([&] { return gov.waiting() == 1; }));
  EXPECT_FALSE(granted.load());
  gov.Release(1);  // free = 2: exactly enough
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(gov.in_use(), 4u);
  gov.Release(4);
}

TEST(MemoryGovernorTest, WakeupIsFifoFairWithoutBarging) {
  MemoryGovernor gov(4);
  ASSERT_TRUE(gov.TryAcquire(4));

  std::mutex mu;
  std::vector<int> grant_order;
  // First a large demand, then a small one that *could* be satisfied
  // earlier — FIFO fairness must hold the small one back.
  std::thread big([&] {
    EXPECT_TRUE(gov.Acquire(3).ok());
    {
      std::lock_guard<std::mutex> lock(mu);
      grant_order.push_back(3);
    }
    gov.Release(3);
  });
  ASSERT_TRUE(WaitFor([&] { return gov.waiting() == 1; }));
  std::thread small([&] {
    EXPECT_TRUE(gov.Acquire(1).ok());
    std::lock_guard<std::mutex> lock(mu);
    grant_order.push_back(1);
  });
  ASSERT_TRUE(WaitFor([&] { return gov.waiting() == 2; }));

  gov.Release(1);  // free = 1: enough for the small demand — but it is
                   // not at the head; nobody may be granted yet.
  EXPECT_FALSE(gov.TryAcquire(1));  // and TryAcquire may not barge either
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(gov.waiting(), 2u);

  gov.Release(2);  // free = 3: the head demand fits, runs, releases;
                   // only then is the small one granted.
  big.join();
  small.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 3);
  EXPECT_EQ(grant_order[1], 1);
  // Held at the end: 1 of the test's original 4, plus the small
  // demand's slot.
  EXPECT_EQ(gov.in_use(), 2u);
  gov.Release(2);
}

TEST(MemoryGovernorTest, DemandBeyondCapacityIsAnError) {
  MemoryGovernor gov(4);
  Status st = gov.Acquire(5);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(st.message(),
            "MemoryGovernor: demand of 5 records exceeds the budget of 4");
  EXPECT_EQ(gov.in_use(), 0u);
  EXPECT_EQ(gov.waiting(), 0u);
  // The ledger still works afterwards.
  EXPECT_TRUE(gov.Acquire(4).ok());
  gov.Release(4);
}

TEST(MemoryGovernorTest, OverReleasePoisonsTheLedgerWithExactDiagnostic) {
  // Releasing more than is leased is a double-release bug in the
  // caller. Clamping would silently inflate the budget; instead the
  // ledger poisons with the exact diagnostic and refuses all further
  // grants.
  MemoryGovernor gov(8);
  ASSERT_TRUE(gov.TryAcquire(3));
  EXPECT_TRUE(gov.health().ok());
  gov.Release(5);  // only 3 leased
  Status h = gov.health();
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(h.message(),
            "MemoryGovernor: released 5 slots but only 3 are leased "
            "(double release)");
  EXPECT_FALSE(gov.TryAcquire(1));
  Status acq = gov.Acquire(1);
  ASSERT_FALSE(acq.ok());
  EXPECT_EQ(acq.message(), h.message());
  // The diagnostic is latched: a later (otherwise valid) release does
  // not clear it or corrupt the evidence further.
  gov.Release(1);
  EXPECT_EQ(gov.health().message(), h.message());
}

TEST(MemoryGovernorTest, OverReleaseWakesBlockedWaitersWithTheError) {
  MemoryGovernor gov(4);
  ASSERT_TRUE(gov.TryAcquire(4));
  std::atomic<bool> failed{false};
  std::thread waiter([&] {
    Status st = gov.Acquire(2);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("double release"), std::string::npos);
    failed = true;
  });
  ASSERT_TRUE(WaitFor([&] { return gov.waiting() == 1; }));
  gov.Release(5);  // 5 > 4: poison — the waiter must not block forever
  waiter.join();
  EXPECT_TRUE(failed.load());
  EXPECT_EQ(gov.waiting(), 0u);
}

TEST(MemoryGovernorTest, ZeroDemandIsAnUnconditionalNoOpGrant) {
  // A zero-record MRT file must never block behind a full budget or an
  // earlier waiter: Acquire(0) does not enqueue, TryAcquire(0) does not
  // fail, and neither changes the ledger.
  MemoryGovernor gov(2);
  ASSERT_TRUE(gov.TryAcquire(2));  // budget exhausted
  std::thread waiter([&] { EXPECT_TRUE(gov.Acquire(1).ok()); });
  ASSERT_TRUE(WaitFor([&] { return gov.waiting() == 1; }));

  EXPECT_TRUE(gov.TryAcquire(0));
  EXPECT_TRUE(gov.Acquire(0).ok());
  EXPECT_EQ(gov.waiting(), 1u);  // the zero demands never queued
  EXPECT_EQ(gov.in_use(), 2u);   // and never touched the ledger

  gov.Release(2);
  waiter.join();
  gov.Release(1);
  EXPECT_EQ(gov.in_use(), 0u);
  EXPECT_TRUE(gov.health().ok());
}

TEST(MemoryGovernorTest, SnapshotIsLockConsistent) {
  MemoryGovernor gov(10);
  ASSERT_TRUE(gov.TryAcquire(7));
  gov.Release(3);
  MemoryGovernor::Stats s = gov.snapshot();
  EXPECT_EQ(s.capacity, 10u);
  EXPECT_EQ(s.in_use, 4u);
  EXPECT_EQ(s.max_in_use, 7u);
  EXPECT_EQ(s.waiting, 0u);
  gov.Release(4);
}

TEST(MemoryGovernorTest, WatermarkTracksPeakNotCurrent) {
  MemoryGovernor gov(10);
  ASSERT_TRUE(gov.TryAcquire(7));
  gov.Release(5);
  ASSERT_TRUE(gov.TryAcquire(2));
  EXPECT_EQ(gov.in_use(), 4u);
  EXPECT_EQ(gov.max_in_use(), 7u);
  gov.Release(4);
}

}  // namespace
}  // namespace bgps::core
