#include "trace.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {
namespace {

// Raw spans kept for the dump (~48 bytes each). Aggregates keep
// counting past the cap.
constexpr uint64_t kMaxRawSpans = 500'000;
// Log-scale duration histogram: 16 buckets per power of two.
constexpr int kBucketsPerOctave = 16;
constexpr int kBuckets = 64 * kBucketsPerOctave;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Bucket(int64_t ns) {
  if (ns <= 1) return 0;
  int b = int(std::log2(double(ns)) * kBucketsPerOctave);
  return b < kBuckets ? b : kBuckets - 1;
}

double BucketUpperNs(int b) {
  return std::exp2(double(b + 1) / kBucketsPerOctave);
}

struct NameStat {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::array<uint32_t, kBuckets> hist{};
};

struct RawSpan {
  uint64_t id;
  uint64_t parent;
  uint32_t run;
  uint32_t thread;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

struct Open {
  const char* name;
  int64_t start_ns;
  int64_t child_ns;
  uint64_t id;
};

struct ThreadState {
  uint32_t index = 0;
  uint64_t next_id = 1;
  std::vector<Open> stack;  // touched only by the owning thread
  std::mutex mu;            // guards stats and raw against Collect
  std::unordered_map<const char*, NameStat> stats;
  std::vector<RawSpan> raw;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_run{0};
std::atomic<uint64_t> g_recorded{0};
std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadState>> g_registry;

ThreadState& Local() {
  // The registry co-owns each state, so spans recorded by a thread that
  // has since exited (a pool worker, a subscriber) are still collected.
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    s->index = uint32_t(g_registry.size());
    g_registry.push_back(s);
    return s;
  }();
  return *state;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetRun(uint32_t run) { g_run.store(run, std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!Enabled()) return;
  ThreadState& t = Local();
  uint64_t id = (uint64_t(t.index) << 40) | t.next_id++;
  t.stack.push_back({name, NowNs(), 0, id});
  open_ = true;
}

Span::~Span() {
  if (!open_) return;
  int64_t end = NowNs();
  ThreadState& t = Local();
  Open o = t.stack.back();
  t.stack.pop_back();
  int64_t dur = end - o.start_ns;
  uint64_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += dur;
    parent = t.stack.back().id;
  }
  uint64_t seq = g_recorded.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(t.mu);
  NameStat& s = t.stats[o.name];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - o.child_ns;
  ++s.hist[Bucket(dur)];
  if (seq < kMaxRawSpans) {
    t.raw.push_back({o.id, parent, g_run.load(std::memory_order_relaxed),
                     t.index, o.name, o.start_ns, end});
  }
}

std::map<std::string, Stat> Collect() {
  std::map<std::string, NameStat> merged;
  {
    std::lock_guard<std::mutex> registry_lock(g_registry_mu);
    for (const auto& t : g_registry) {
      std::lock_guard<std::mutex> lock(t->mu);
      for (const auto& [name, s] : t->stats) {
        NameStat& m = merged[name];
        m.count += s.count;
        m.total_ns += s.total_ns;
        m.self_ns += s.self_ns;
        for (int b = 0; b < kBuckets; ++b) m.hist[b] += s.hist[b];
      }
    }
  }
  std::map<std::string, Stat> out;
  for (const auto& [name, m] : merged) {
    Stat& s = out[name];
    s.count = m.count;
    s.total_s = double(m.total_ns) * 1e-9;
    s.self_s = double(m.self_ns) * 1e-9;
    uint64_t rank = uint64_t(std::ceil(0.99 * double(m.count)));
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += m.hist[b];
      if (seen >= rank && rank > 0) {
        s.p99_s = BucketUpperNs(b) * 1e-9;
        break;
      }
    }
  }
  return out;
}

double Total(const std::string& name) {
  const auto spans = Collect();
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

uint64_t WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (const auto& t : g_registry) {
    std::lock_guard<std::mutex> lock(t->mu);
    if (f == nullptr) continue;
    for (const RawSpan& s : t->raw) {
      std::fprintf(f, "%llx\t%llx\t%u\t%u\t%s\t%lld\t%lld\n",
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   s.run, s.thread, s.name, (long long)s.start_ns,
                   (long long)s.end_ns);
    }
  }
  if (f != nullptr) std::fclose(f);
  return g_recorded.load();
}

}  // namespace perfbench::trace
