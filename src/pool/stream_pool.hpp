// StreamPool — the multi-tenant service layer (runtime layer).
//
// The paper positions BGPStream as a framework that many concurrent
// consumers run on top of: monitoring plugins, timely analyses, live
// dashboards (§4–6). With per-stream pipelines, N tenants means N×
// decode threads and N× worst-case buffer memory. A StreamPool owns the
// two shared resources instead — one core::Executor (fixed worker pool,
// per-tenant FIFO queues, deficit-weighted round-robin dispatch) and
// one core::MemoryGovernor (hard process-wide cap on buffered records,
// demand-driven leases) — and vends BgpStream handles wired to them.
//
//   auto pool = bgps::StreamPool::Create({.threads = 4,
//                                         .record_budget = 4096});
//   auto monitor = (*pool)->CreateStream(
//       {}, {.weight = 4, .name = "live-monitor"});   // priority tenant
//   auto backfill = (*pool)->CreateStream();          // weight-1 tenant
//   // configure + Start() + NextRecord() each handle as usual,
//   // from any thread (one thread per stream).
//
// Operability: Stats() returns a snapshot of every live tenant (queue
// depth, tasks executed, files decoded, records buffered, reclaims)
// plus the governor ledger and executor counters — the introspection a
// multi-tenant service needs. Options::idle_reclaim_rounds (or the
// per-tenant override) bounds the damage a paused consumer can do: its
// parked buffers are dropped and re-decoded on resume, so one stalled
// tenant cannot pin the shared budget.
//
// Every vended stream emits exactly the record/elem sequence the
// synchronous BgpStream emits — the pool only changes *where* decode
// work runs and *who* accounts the buffers. Streams may outlive the pool
// (they share ownership of the Executor/Governor), but the intended
// shape is pool-owns-lifetime.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stream.hpp"

namespace bgps {

namespace pool_internal {
struct TenantRegistry;  // live vended streams, for Stats()
}  // namespace pool_internal

class StreamPool {
 public:
  struct Options {
    // Shared decode workers serving every vended stream.
    size_t threads = 4;
    // Hard cap on decoded records buffered in RAM across all vended
    // streams together (the MemoryGovernor capacity).
    size_t record_budget = 4096;
    // Default idle-tenant reclaim threshold, in executor dispatch
    // rounds, applied to vended streams (TenantOptions can override
    // per tenant). 0 = paused consumers keep their buffers forever.
    size_t idle_reclaim_rounds = 0;
  };

  // Per-tenant scheduling identity for CreateStream.
  struct TenantOptions {
    // Tasks this tenant's decode queue drains per dispatch visit,
    // relative to other tenants (deficit-weighted round-robin). Must be
    // >= 1 — a vended stream's Start() rejects 0 with an exact message.
    size_t weight = 1;
    // Deadline-class dispatch: this tenant's decode tasks drain
    // earliest-enqueued-first across every same-weight deadline tenant,
    // instead of strict cursor order — for live monitors whose record
    // latency should track load, not round-robin position. Output is
    // identical either way.
    bool deadline = false;
    // Display name in Stats(); empty = "tenant-<n>".
    std::string name;
    // Per-tenant override of Options::idle_reclaim_rounds (nullopt =
    // use the pool default; 0 = never reclaim this tenant).
    std::optional<size_t> idle_reclaim_rounds;
  };

  // Lock-consistent introspection snapshot (see Stats()). The
  // per-tenant and governor sections reuse the owning components' own
  // stats structs rather than mirroring their fields.
  struct Snapshot {
    struct Tenant {
      std::string name;
      size_t weight = 0;
      bool deadline = false;
      // queue_depth, tasks_executed, files_decoded, records_buffered,
      // records_emitted, reclaims.
      core::BgpStream::RuntimeStats stats;
    };
    struct Executor {
      size_t threads = 0;
      size_t tasks_run = 0;
      size_t dispatch_rounds = 0;
      size_t tenants = 0;
    };
    std::vector<Tenant> tenants;  // live vended streams, creation order
    core::MemoryGovernor::Stats governor;
    Executor executor;
    size_t streams_created = 0;
  };

  // Validates the options; error on a zero thread count or budget (a
  // pool of never-running streams).
  static Result<std::unique_ptr<StreamPool>> Create(Options options);

  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  // Decode-ahead depth CreateStream gives a stream whose options leave
  // prefetch_subsets at 0.
  static constexpr size_t kDefaultPrefetchSubsets = 3;

  // Vends a stream wired to the shared Executor and MemoryGovernor.
  // `options` may pre-set any BgpStream knob; executor/governor are
  // overwritten with the pool's, and prefetch_subsets falls back to
  // kDefaultPrefetchSubsets when 0 (max_records_in_flight = 0 already
  // means "the whole budget").
  // `tenant` names and weights the stream's executor queue for
  // scheduling and Stats(). The handle is configured, started, and
  // consumed exactly like a standalone BgpStream; destroying it
  // detaches the tenant and drops it from Stats(). Thread-safe.
  // (Overloads instead of a `TenantOptions tenant = {}` default
  // argument: the nested struct's member initializers are not parsed
  // yet at this point of the enclosing class.)
  std::unique_ptr<core::BgpStream> CreateStream(
      core::BgpStream::Options options, TenantOptions tenant);
  std::unique_ptr<core::BgpStream> CreateStream(
      core::BgpStream::Options options = {}) {
    return CreateStream(std::move(options), TenantOptions{});
  }

  // Snapshot of every live tenant plus the governor ledger and
  // executor counters. Each component is read under one acquisition of
  // its own lock (values are internally consistent); components are
  // not frozen against each other, so cross-component sums may be
  // skewed by in-flight work. Thread-safe, any time.
  Snapshot Stats() const;

  const std::shared_ptr<core::Executor>& executor() const {
    return executor_;
  }
  const std::shared_ptr<core::MemoryGovernor>& governor() const {
    return governor_;
  }

  size_t threads() const { return options_.threads; }
  size_t record_budget() const { return options_.record_budget; }
  // Streams vended so far (not necessarily still alive).
  size_t streams_created() const { return streams_created_.load(); }
  // Governor passthroughs: the live and high-watermark counts of
  // buffered records across all tenants.
  size_t records_in_use() const { return governor_->in_use(); }
  size_t max_records_in_use() const { return governor_->max_in_use(); }

 private:
  explicit StreamPool(Options options);

  Options options_;
  std::shared_ptr<core::Executor> executor_;
  std::shared_ptr<core::MemoryGovernor> governor_;
  std::shared_ptr<pool_internal::TenantRegistry> registry_;
  std::atomic<size_t> streams_created_{0};
};

// One snapshot as a single-line JSON object (no trailing newline): the
// "executor", "governor", "streams_created" and "tenants" sections, each
// tenant with every Snapshot::Tenant field. bgpreader --pool-stats-json,
// bgpfanout's stats topic and bgplive --stats-interval all emit this
// shape; docs/OPERATIONS.md documents it.
std::string SnapshotJson(const StreamPool::Snapshot& snap);

}  // namespace bgps
