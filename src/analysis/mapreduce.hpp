// Partitioned map/reduce runner — the Spark stand-in for §5.
//
// The paper's longitudinal analyses split the data "by time range and BGP
// collector", map a PyBGPStream routine over each partition, and reduce
// per VP / per collector / overall. RunPartitioned reproduces that shape
// on a thread pool: each partition opens its own BGPStream (one stream
// per partition, like one task per RDD slice) and the caller reduces the
// returned per-partition values.
//
// Two backends:
//   * raw threads (the original shape) — spawns up to `workers` private
//     std::threads;
//   * an injected core::Executor — partitions become tasks of one tenant
//     on the shared pool, so an analysis and the decode stages it drives
//     share one set of workers instead of oversubscribing the host.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/executor.hpp"

namespace bgps::analysis {

// Applies `fn(partition)` to every element of `partitions`, running up to
// `workers` threads (0 = hardware concurrency). Results keep partition
// order. `Fn` must be callable concurrently on distinct partitions.
template <typename Partition, typename Fn>
auto RunPartitioned(const std::vector<Partition>& partitions, Fn&& fn,
                    unsigned workers = 0)
    -> std::vector<decltype(fn(partitions.front()))> {
  using Result = decltype(fn(partitions.front()));
  std::vector<Result> results(partitions.size());
  if (partitions.empty()) return results;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 4;
  workers = std::min<unsigned>(workers, unsigned(partitions.size()));

  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= partitions.size()) return;
      results[i] = fn(partitions[i]);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return results;
}

// Executor-backed variant: one task per partition on a fresh tenant of
// `executor`, deficit-scheduled against every other tenant (a decode
// stream's prefetch tasks, other analyses). Tasks of one tenant may run
// concurrently on different workers — exactly what independent
// partitions want. Blocks until every partition completed; results keep
// partition order. Falls back to the thread backend when `executor` is
// null or was built with zero threads (it could never run the tasks).
template <typename Partition, typename Fn>
auto RunPartitioned(const std::vector<Partition>& partitions, Fn&& fn,
                    core::Executor* executor)
    -> std::vector<decltype(fn(partitions.front()))> {
  using Result = decltype(fn(partitions.front()));
  if (executor == nullptr || executor->threads() == 0)
    return RunPartitioned(partitions, std::forward<Fn>(fn), unsigned(0));
  std::vector<Result> results(partitions.size());
  if (partitions.empty()) return results;

  auto tenant = executor->CreateTenant();
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    tenant->Submit([&, i] {
      results[i] = fn(partitions[i]);
      // Notify under the lock: the caller cannot see the last `done`,
      // return and destroy done_cv while this task is still inside the
      // notify.
      std::lock_guard<std::mutex> lock(mu);
      if (++done == partitions.size()) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return done == partitions.size(); });
  return results;
}

}  // namespace bgps::analysis
