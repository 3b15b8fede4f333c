// Allocation-count regression tests for the arena / zero-copy decode
// hot path: this binary overrides global operator new/delete with a
// counting shim, decodes real MRT bytes, and pins the steady-state heap
// traffic at (near) zero. A change that re-introduces per-record
// allocations — a std::vector where a SmallVec belongs, an owning
// string where a view over the raw buffer belongs, a lost AS-path cache
// hit — fails here long before it would show up in a benchmark.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <random>

#include "bgp/attrs.hpp"
#include "core/data_interface.hpp"
#include "core/prefetch.hpp"
#include "corsaro/rt.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "pool/record_fanout.hpp"

namespace {

std::atomic<size_t> g_allocs{0};

size_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

// Counting shim over malloc/free. Every allocating form funnels through
// these two; the aligned forms exist because standard containers may
// over-align nodes. The deallocating forms stay out of line: inlined
// into a caller, GCC pairs their free() with the operator new it can
// see and warns of a mismatch.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  size_t align = std::max(sizeof(void*), static_cast<size_t>(al));
  if (posix_memalign(&p, align, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// A realistic update file: every record announces one prefix with a
// short AS path and a couple of communities — all within the SmallVec
// inline capacities, and with the AS-path bytes repeating so the
// per-dump intern cache hits after the first record.
std::string WriteUpdatesFile(const std::filesystem::path& dir, size_t n) {
  std::string path = (dir / "updates.mrt").string();
  mrt::MrtFileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  for (size_t i = 0; i < n; ++i) {
    mrt::Bgp4mpMessage m;
    m.peer_asn = 65001;
    m.local_asn = 64512;
    m.peer_address = IpAddress::V4(10, 0, 0, 1);
    m.local_address = IpAddress::V4(192, 0, 2, 1);
    m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 15169});
    m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
    m.update.attrs.communities.push_back(bgp::Community{65001, 100});
    m.update.attrs.communities.push_back(bgp::Community{65001, 200});
    m.update.announced.push_back(
        Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0), 24));
    EXPECT_TRUE(
        w.Write(mrt::EncodeBgp4mpUpdate(1458000000 + Timestamp(i), m)).ok());
  }
  EXPECT_TRUE(w.Close().ok());
  return path;
}

// The tight frame+decode loop — MrtFileReader::Next into DecodeRecord
// with the per-dump AS-path cache — must be allocation-free at steady
// state: the reader's frame buffer is reused, the record body is a view
// into it, every decoded container stays within its inline capacity,
// and repeated AS-path bytes copy out of the cache instead of being
// re-decoded. A warmed second pass over the whole file is allowed only
// a small constant slack (frame-buffer regrowth), NOT per-record heap
// traffic.
TEST(AllocRegressionTest, SteadyStateDecodeLoopIsAllocationFree) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_decode_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 500;
  std::string path = WriteUpdatesFile(dir, kRecords);

  Arena arena;
  bgp::AsPathCache cache(&arena);
  bgp::AttrDecodeCtx ctx{&cache};

  // Warm-up pass: grows the frame buffer to the largest record and
  // populates the AS-path cache.
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t decoded = 0;
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw, &ctx);
      ASSERT_TRUE(msg.ok());
      ++decoded;
    }
    ASSERT_EQ(decoded, kRecords);
  }

  // Measured pass: a fresh reader over the same file with the warmed
  // cache. Opening the reader (ifstream internals) is excluded; the
  // loop itself must not allocate per record.
  mrt::MrtFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  size_t before = AllocCount();
  size_t decoded = 0;
  uint64_t checksum = 0;
  while (true) {
    auto raw = reader.Next();
    if (!raw.ok()) break;
    auto msg = mrt::DecodeRecord(*raw, &ctx);
    ASSERT_TRUE(msg.ok());
    checksum += uint64_t(msg->timestamp);
    ++decoded;
  }
  size_t allocs = AllocCount() - before;
  EXPECT_EQ(decoded, kRecords);
  EXPECT_NE(checksum, 0u);
  // ~0 per record: the only tolerated allocations are the one-time
  // frame-buffer growth of the fresh reader.
  EXPECT_LE(allocs, 16u) << "steady-state decode allocated " << allocs
                         << " times for " << kRecords << " records";
  // The cache actually served the repeats — the zero-allocation claim
  // above rests on it.
  EXPECT_GE(cache.hits(), kRecords - 1);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Same property over a *generated* corpus: seeded-random records drawn
// from a pool of 64 distinct AS paths (2-8 hops) with varying prefixes,
// communities and withdrawals — realistic churn diversity instead of
// one repeated record. The pool is what a real dump looks like to the
// intern cache (a few hundred distinct paths serving millions of
// records), so the steady-state loop must still be allocation-free once
// every pool entry has been seen. Everything stays within SmallVec
// inline capacities by construction: diversity, not blow-ups, is what
// this case adds.
std::string WriteGeneratedCorpusFile(const std::filesystem::path& dir,
                                     size_t n) {
  std::mt19937_64 rng(4242);
  std::vector<bgp::AsPath> pool;
  for (int p = 0; p < 64; ++p) {
    std::vector<bgp::Asn> hops;
    size_t len = 2 + rng() % 7;  // 2..8 hops, within AsnVec's inline 8
    for (size_t h = 0; h < len; ++h) hops.push_back(64512 + rng() % 1000);
    pool.push_back(bgp::AsPath::Sequence(std::move(hops)));
  }

  std::string path = (dir / "generated.mrt").string();
  mrt::MrtFileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  for (size_t i = 0; i < n; ++i) {
    mrt::Bgp4mpMessage m;
    m.peer_asn = 65001 + bgp::Asn(rng() % 4);
    m.local_asn = 64512;
    m.peer_address = IpAddress::V4(10, 0, 0, uint8_t(1 + rng() % 4));
    m.local_address = IpAddress::V4(192, 0, 2, 1);
    if (rng() % 8 == 0) {  // occasional pure withdrawal
      m.update.withdrawn.push_back(
          Prefix(IpAddress::V4(uint32_t(rng()) & 0xFFFFFF00u), 24));
    } else {
      m.update.attrs.as_path = pool[rng() % pool.size()];
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      size_t ncomm = rng() % 4;  // within Communities' inline 8
      for (size_t c = 0; c < ncomm; ++c)
        m.update.attrs.communities.push_back(
            bgp::Community(uint16_t(65001 + rng() % 4), uint16_t(rng() % 500)));
      size_t nprefix = 1 + rng() % 2;
      for (size_t p = 0; p < nprefix; ++p)
        m.update.announced.push_back(
            Prefix(IpAddress::V4(uint32_t(rng()) & 0xFFFFFF00u), 24));
    }
    EXPECT_TRUE(
        w.Write(mrt::EncodeBgp4mpUpdate(1458000000 + Timestamp(i), m)).ok());
  }
  EXPECT_TRUE(w.Close().ok());
  return path;
}

TEST(AllocRegressionTest, GeneratedCorpusDecodeLoopIsAllocationFree) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_corpus_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 2000;
  std::string path = WriteGeneratedCorpusFile(dir, kRecords);

  Arena arena;
  bgp::AsPathCache cache(&arena);
  bgp::AttrDecodeCtx ctx{&cache};

  // Warm-up: sees all 64 pool paths, grows the frame buffer.
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t decoded = 0;
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw, &ctx);
      ASSERT_TRUE(msg.ok());
      ++decoded;
    }
    ASSERT_EQ(decoded, kRecords);
  }

  mrt::MrtFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  size_t before = AllocCount();
  size_t decoded = 0;
  uint64_t checksum = 0;
  while (true) {
    auto raw = reader.Next();
    if (!raw.ok()) break;
    auto msg = mrt::DecodeRecord(*raw, &ctx);
    ASSERT_TRUE(msg.ok());
    checksum += uint64_t(msg->timestamp);
    ++decoded;
  }
  size_t allocs = AllocCount() - before;
  EXPECT_EQ(decoded, kRecords);
  EXPECT_NE(checksum, 0u);
  EXPECT_LE(allocs, 16u) << "generated-corpus decode allocated " << allocs
                         << " times for " << kRecords << " records";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// The full chunked pipeline — fill tasks decoding into the bounded
// buffer, the consumer popping — is allowed bounded bookkeeping (task
// objects, deque blocks), but nothing per-record-proportional beyond
// it. Pre-arena this path paid several container/string allocations on
// every single record.
TEST(AllocRegressionTest, ChunkedStreamPathAllocatesBoundedPerRecord) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_stream_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 2000;
  std::string path = WriteUpdatesFile(dir, kRecords);
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "alloc";
  meta.type = DumpType::Updates;
  meta.start = 1458000000;
  meta.duration = 3600;
  meta.path = path;

  PrefetchDecoder::Options opt;
  opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 1});
  opt.governor = std::make_shared<MemoryGovernor>(64);
  MemoryGovernor& governor = *opt.governor;
  PrefetchDecoder decoder(std::move(opt));

  size_t before = AllocCount();
  ASSERT_TRUE(governor.TryAcquire(1));  // the file's floor slot
  decoder.Submit({meta});
  auto sources = decoder.NextSources();
  ASSERT_EQ(sources.size(), 1u);
  size_t drained = 0;
  while (auto rec = sources[0]->Next()) {
    ASSERT_EQ(rec->status, RecordStatus::Valid);
    ++drained;
  }
  size_t allocs = AllocCount() - before;
  ASSERT_EQ(drained, kRecords);
  double per_record = double(allocs) / double(kRecords);
  EXPECT_LT(per_record, 4.0)
      << allocs << " allocations for " << kRecords
      << " records end to end (" << per_record << " per record)";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A fan-out subscriber emits what it has fetched before it polls again
// and decodes one record at a time into a reused slot. Draining a
// closed cluster therefore costs the elem buffer each returned record
// carries away, plus a constant per poll. Polling on every call (a
// watermark fetch and a topic-list copy per record) and decoding whole
// batches into a queue cost 6 per record on this input.
TEST(AllocRegressionTest, FanoutSubscriberDrainAllocatesOncePerRecord) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_fanout_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 2000;
  std::string path = WriteUpdatesFile(dir, kRecords);

  mq::Cluster cluster;
  {
    SingleFileInterface di(path, DumpType::Updates);
    BgpStream stream;
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    ASSERT_TRUE(stream.Start().ok());
    pool::RecordPublisher::Options popt;
    popt.cluster = &cluster;
    pool::RecordPublisher publisher(popt);
    auto stats = publisher.Run(stream);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->records_published, kRecords);
  }

  pool::RecordSubscriber::Options sopt;
  sopt.cluster = &cluster;
  pool::RecordSubscriber sub(std::move(sopt));
  ASSERT_TRUE(sub.Start().ok());
  size_t before = AllocCount();
  size_t drained = 0, elems = 0;
  while (auto rec = sub.NextRecord()) {
    elems += sub.Elems(*rec).size();
    ++drained;
  }
  size_t allocs = AllocCount() - before;
  ASSERT_TRUE(sub.status().ok()) << sub.status().ToString();
  ASSERT_EQ(drained, kRecords);
  EXPECT_EQ(elems, kRecords);  // one announced prefix per record
  double per_record = double(allocs) / double(kRecords);
  EXPECT_LT(per_record, 2.0)
      << allocs << " allocations for " << kRecords << " records drained ("
      << per_record << " per record)";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace bgps::core

namespace bgps::corsaro {
namespace {

// Routing-tables apply: interned attribute sets, dense per-VP tables, a
// staged-dump vector and a dirty index that keep their capacity across
// dumps and bins, so re-applying known prefixes with already-seen paths
// allocates nothing per elem. Map-based tables allocated a dirty node on
// each cell's first touch in a bin and a shadow node per RIB entry.
class RtAllocFeed {
 public:
  explicit RtAllocFeed(size_t prefixes) {
    std::vector<bgp::AsPath> paths;
    for (bgp::Asn p = 0; p < 8; ++p)
      paths.push_back(bgp::AsPath::Sequence({65001, 3356, 64512 + p}));
    for (size_t i = 0; i < prefixes; ++i) {
      core::Elem e;
      e.peer_asn = 65001;
      e.prefix = Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i), 0), 24);
      e.as_path = paths[i % paths.size()];
      e.communities.push_back(bgp::Community{65001, uint16_t(i % 3)});
      e.type = core::ElemType::RibEntry;
      rib_.push_back({e});
      e.type = core::ElemType::Announcement;
      updates_.push_back({e});
    }
  }

  // One RIB dump of every prefix, all records stamped `t`.
  void Rib(RoutingTables& rt, Timestamp t) {
    for (size_t i = 0; i <= rib_.size(); ++i) {
      core::Record rec;
      rec.collector = "rrc00";
      rec.dump_type = core::DumpType::Rib;
      rec.timestamp = t;
      rec.position = i == 0                ? core::DumpPosition::Start
                     : i == rib_.size()    ? core::DumpPosition::End
                                           : core::DumpPosition::Middle;
      Feed(rt, rec, i < rib_.size() ? &rib_[i] : &none_, t);
    }
  }

  // One updates record per prefix re-announcing its dump path.
  void Updates(RoutingTables& rt, Timestamp t) {
    for (auto& elems : updates_) {
      core::Record rec;
      rec.collector = "rrc00";
      rec.dump_type = core::DumpType::Updates;
      rec.timestamp = t;
      Feed(rt, rec, &elems, t);
    }
  }

 private:
  static void Feed(RoutingTables& rt, const core::Record& rec,
                   std::vector<core::Elem>* elems, Timestamp t) {
    for (auto& e : *elems) e.time = t;
    RecordContext ctx{rec, *elems, {}};
    rt.OnRecord(ctx);
  }

  std::vector<std::vector<core::Elem>> rib_;
  std::vector<std::vector<core::Elem>> updates_;
  std::vector<core::Elem> none_;
};

TEST(AllocRegressionTest, RoutingTablesApplyAllocatesPerBinNotPerElem) {
  for (size_t n : {size_t(1000), size_t(4000)}) {
    RtAllocFeed feed(n);
    RoutingTables rt;  // inline: every batch applies on this thread
    feed.Rib(rt, 1000);
    rt.OnBinEnd(0, 900);
    feed.Updates(rt, 2000);
    rt.OnBinEnd(900, 1800);

    size_t before = AllocCount();
    feed.Updates(rt, 3000);
    rt.OnBinEnd(1800, 2700);
    size_t bin_allocs = AllocCount() - before;

    before = AllocCount();
    feed.Rib(rt, 4000);
    rt.OnBinEnd(2700, 3600);
    size_t rib_allocs = AllocCount() - before;

    EXPECT_LE(bin_allocs, 8u) << "a bin of " << n << " re-announcements";
    EXPECT_LE(rib_allocs, 8u) << "a RIB dump of " << n << " entries";
    // The apply really happened: one VP holds every prefix, and nothing
    // changed content after the first dump.
    EXPECT_EQ(rt.table(VpKey{"rrc00", 65001}).size(), n);
    ASSERT_EQ(rt.bin_stats().size(), 4u);
    EXPECT_EQ(rt.bin_stats()[0].diff_cells, n);
    EXPECT_EQ(rt.bin_stats()[3].diff_cells, 0u);
  }
}

}  // namespace
}  // namespace bgps::corsaro
