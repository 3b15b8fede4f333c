#include "pool/stream_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace bgps {

namespace pool_internal {

// Live vended streams. Shared by the pool and every vended handle so
// Stats() works no matter which side is destroyed first.
struct TenantRegistry {
  struct Entry {
    const core::BgpStream* stream;
    std::string name;
    size_t weight;
    bool deadline;
  };

  std::mutex mu;
  std::vector<Entry> entries;

  void Add(const core::BgpStream* stream, std::string name, size_t weight,
           bool deadline) {
    std::lock_guard<std::mutex> lock(mu);
    entries.push_back({stream, std::move(name), weight, deadline});
  }
  void Remove(const core::BgpStream* stream) {
    std::lock_guard<std::mutex> lock(mu);
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [stream](const Entry& e) {
                                   return e.stream == stream;
                                 }),
                  entries.end());
  }
};

namespace {

// A vended handle: a plain BgpStream that additionally deregisters
// from the pool's stats registry on destruction — *before* ~BgpStream
// joins the decode work, so Stats() never reads a dying stream.
class PooledStream final : public core::BgpStream {
 public:
  PooledStream(core::BgpStream::Options options,
               std::shared_ptr<TenantRegistry> registry)
      : core::BgpStream(std::move(options)), registry_(std::move(registry)) {}

  ~PooledStream() override { registry_->Remove(this); }

 private:
  std::shared_ptr<TenantRegistry> registry_;
};

}  // namespace

}  // namespace pool_internal

StreamPool::StreamPool(Options options) : options_(options) {
  core::Executor::Options eopt;
  eopt.threads = options_.threads;
  executor_ = std::make_shared<core::Executor>(eopt);
  governor_ = std::make_shared<core::MemoryGovernor>(options_.record_budget);
  registry_ = std::make_shared<pool_internal::TenantRegistry>();
  // No contention-hook wiring here: each reclaim-enabled vended
  // stream's PrefetchDecoder registers (and on destruction removes)
  // its own governor hook, so a pool whose streams never enable
  // reclaim keeps blocked Acquires on the untimed no-poll path.
}

Result<std::unique_ptr<StreamPool>> StreamPool::Create(Options options) {
  if (options.threads == 0)
    return InvalidArgument("StreamPool requires threads > 0");
  if (options.record_budget == 0)
    return InvalidArgument("StreamPool requires record_budget > 0");
  return std::unique_ptr<StreamPool>(new StreamPool(options));
}

std::unique_ptr<core::BgpStream> StreamPool::CreateStream(
    core::BgpStream::Options options, TenantOptions tenant) {
  options.executor = executor_;
  options.governor = governor_;
  if (options.prefetch_subsets == 0) {
    options.prefetch_subsets = kDefaultPrefetchSubsets;
  }
  options.tenant_weight = tenant.weight;
  options.tenant_deadline = tenant.deadline;
  options.idle_reclaim_rounds =
      tenant.idle_reclaim_rounds.value_or(options_.idle_reclaim_rounds);
  size_t ordinal = streams_created_.fetch_add(1) + 1;
  std::string name = tenant.name.empty()
                         ? "tenant-" + std::to_string(ordinal)
                         : std::move(tenant.name);
  auto stream = std::make_unique<pool_internal::PooledStream>(
      std::move(options), registry_);
  registry_->Add(stream.get(), std::move(name), tenant.weight,
                 tenant.deadline);
  return stream;
}

StreamPool::Snapshot StreamPool::Stats() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(registry_->mu);
    snap.tenants.reserve(registry_->entries.size());
    for (const auto& entry : registry_->entries) {
      snap.tenants.push_back({entry.name, entry.weight, entry.deadline,
                              entry.stream->stats()});
    }
  }
  snap.governor = governor_->snapshot();
  snap.executor = {executor_->threads(), executor_->tasks_run(),
                   executor_->dispatch_rounds(), executor_->tenants()};
  snap.streams_created = streams_created_.load();
  return snap;
}

namespace {

// JSON string escaping: quotes, backslashes and control bytes.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string SnapshotJson(const StreamPool::Snapshot& snap) {
  std::string buf;
  buf += "{\"executor\":{\"threads\":" +
         std::to_string(snap.executor.threads) +
         ",\"tasks_run\":" + std::to_string(snap.executor.tasks_run) +
         ",\"dispatch_rounds\":" +
         std::to_string(snap.executor.dispatch_rounds) +
         ",\"tenants\":" + std::to_string(snap.executor.tenants) + "}";
  buf += ",\"governor\":{\"capacity\":" +
         std::to_string(snap.governor.capacity) +
         ",\"in_use\":" + std::to_string(snap.governor.in_use) +
         ",\"max_in_use\":" + std::to_string(snap.governor.max_in_use) +
         ",\"waiting\":" + std::to_string(snap.governor.waiting) + "}";
  buf += ",\"streams_created\":" + std::to_string(snap.streams_created);
  buf += ",\"tenants\":[";
  for (size_t i = 0; i < snap.tenants.size(); ++i) {
    const auto& t = snap.tenants[i];
    if (i > 0) buf += ",";
    buf += "{\"name\":\"" + JsonEscape(t.name) + "\"";
    buf += ",\"weight\":" + std::to_string(t.weight);
    buf += std::string(",\"deadline\":") + (t.deadline ? "true" : "false");
    buf += ",\"queue_depth\":" + std::to_string(t.stats.queue_depth);
    buf += ",\"tasks_executed\":" + std::to_string(t.stats.tasks_executed);
    buf += ",\"files_decoded\":" + std::to_string(t.stats.files_decoded);
    buf += ",\"records_buffered\":" + std::to_string(t.stats.records_buffered);
    buf += ",\"records_emitted\":" + std::to_string(t.stats.records_emitted);
    buf += ",\"reclaims\":" + std::to_string(t.stats.reclaims) + "}";
  }
  buf += "]}";
  return buf;
}

}  // namespace bgps
