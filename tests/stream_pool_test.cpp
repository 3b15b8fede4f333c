// Tests of the multi-tenant StreamPool service layer: K concurrent
// streams over disjoint archives on one shared Executor must produce
// exactly the per-stream record/elem sequences the synchronous stream
// produces, while the MemoryGovernor keeps the *total* records buffered
// across all tenants under one hard budget.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <tuple>

#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "pool/stream_pool.hpp"

namespace bgps {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;
using core::BgpStream;

using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  size_t max_records_buffered = 0;
  Status status;
};

StreamRun Drain(BgpStream& stream) {
  StreamRun out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector,
                             int(rec->dump_type), int(rec->status),
                             int(rec->position));
    for (const auto& e : stream.Elems(*rec)) {
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
    }
  }
  out.max_records_buffered = stream.max_records_buffered();
  out.status = stream.status();
  return out;
}

// Hands the whole file set to the stream in one batch, then ends.
class VectorDataInterface : public core::DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  core::DataBatch NextBatch(const core::FilterSet&) override {
    core::DataBatch batch;
    if (!served_) {
      batch.files = files_;
      served_ = true;
    } else {
      batch.end_of_stream = true;
    }
    return batch;
  }

 private:
  std::vector<DumpFileMeta> files_;
  bool served_ = false;
};

// One tenant's archive: `files` fully-overlapping updates dumps (so
// they form a single subset), each with `records_per_file` records.
// Tenants get distinct ASNs/prefix bytes so a cross-tenant mixup cannot
// fingerprint equal.
std::vector<DumpFileMeta> WriteTenantArchive(const std::string& dir,
                                             int tenant, int files,
                                             int records_per_file) {
  std::filesystem::create_directories(dir);
  std::vector<DumpFileMeta> out;
  for (int f = 0; f < files; ++f) {
    Timestamp start = 1458000000 + Timestamp(tenant) * 100000 + f;
    std::string path = (std::filesystem::path(dir) /
                        (std::to_string(tenant) + "_" + std::to_string(f) +
                         ".mrt")).string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    for (int i = 0; i < records_per_file; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = bgp::Asn(65000 + tenant * 100 + f);
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, uint8_t(tenant), uint8_t(f), 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence(
          {bgp::Asn(65000 + tenant * 100 + f), 3356, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, uint8_t(tenant), 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(uint32_t(tenant + 1) << 24 | uint32_t(i) << 8),
                 24));
      EXPECT_TRUE(
          w.Write(mrt::EncodeBgp4mpUpdate(start + Timestamp(i) * 5, m)).ok());
    }
    EXPECT_TRUE(w.Close().ok());

    DumpFileMeta meta;
    meta.project = "pool";
    meta.collector = "t" + std::to_string(tenant) + "c" + std::to_string(f);
    meta.type = DumpType::Updates;
    meta.start = start;
    meta.duration = 3600;
    meta.path = path;
    out.push_back(std::move(meta));
  }
  return out;
}

class StreamPoolTest : public ::testing::Test {
 protected:
  static constexpr int kTenants = 4;
  static constexpr int kFilesPerTenant = 6;
  static constexpr int kRecordsPerFile = 50;

  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bgps_stream_pool_" + std::to_string(::getpid()))).string();
    for (int t = 0; t < kTenants; ++t) {
      archives_.push_back(
          WriteTenantArchive(dir_, t, kFilesPerTenant, kRecordsPerFile));
    }
    ASSERT_FALSE(HasFatalFailure());
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // Drains tenant `t`'s archive through `stream`.
  StreamRun RunTenant(int t, std::unique_ptr<BgpStream> stream) {
    VectorDataInterface di(archives_[size_t(t)]);
    stream->SetInterval(0, 4102444800);
    stream->SetDataInterface(&di);
    EXPECT_TRUE(stream->Start().ok());
    return Drain(*stream);
  }

  // The reference: the synchronous stream (the byte-identity oracle).
  StreamRun RunSync(int t) {
    return RunTenant(t, std::make_unique<BgpStream>());
  }

  std::string dir_;
  std::vector<std::vector<DumpFileMeta>> archives_;
};

TEST_F(StreamPoolTest, SharedPoolStreamsMatchTheSyncStream) {
  StreamPool::Options popt;
  popt.threads = 4;
  popt.record_budget = 256;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  for (int t = 0; t < 3; ++t) {  // K = 3 sequential tenants, one pool
    StreamRun expect = RunSync(t);
    ASSERT_EQ(expect.records.size(),
              size_t(kFilesPerTenant) * kRecordsPerFile);

    StreamRun got = RunTenant(t, (*pool)->CreateStream());
    EXPECT_EQ(got.records, expect.records) << "tenant " << t;
    EXPECT_EQ(got.elems, expect.elems) << "tenant " << t;
    EXPECT_TRUE(got.status.ok());
  }
  EXPECT_EQ((*pool)->streams_created(), 3u);
  EXPECT_LE((*pool)->max_records_in_use(), 256u);
}

TEST_F(StreamPoolTest, ConcurrentTenantsMatchTheSyncStreamOnOnePool) {
  // K = 4 streams over disjoint archives, one 4-thread Executor, one
  // global budget — the acceptance scenario.
  std::vector<StreamRun> expect;
  for (int t = 0; t < kTenants; ++t) expect.push_back(RunSync(t));

  StreamPool::Options popt;
  popt.threads = 4;
  popt.record_budget = 128;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  std::vector<StreamRun> got(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back([&, t] {
        got[size_t(t)] = RunTenant(t, (*pool)->CreateStream());
      });
    }
    for (auto& c : consumers) c.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(got[size_t(t)].records, expect[size_t(t)].records)
        << "tenant " << t;
    EXPECT_EQ(got[size_t(t)].elems, expect[size_t(t)].elems)
        << "tenant " << t;
    EXPECT_TRUE(got[size_t(t)].status.ok()) << "tenant " << t;
  }
  // The governor's watermark proves the *global* bound held while all
  // four tenants buffered concurrently.
  EXPECT_GT((*pool)->max_records_in_use(), 0u);
  EXPECT_LE((*pool)->max_records_in_use(), 128u);
}

TEST_F(StreamPoolTest, GlobalBudgetBoundsBufferedRecordsUnderStress) {
  // A budget far below the tenants' combined appetite: every tenant's
  // subset wants kFilesPerTenant floors plus extras, and per-stream
  // max_records_in_flight (= budget by default) would allow 4× the
  // budget if the governor did not lease every buffered record. Every
  // stream must still terminate with its full output.
  constexpr size_t kBudget = 40;
  StreamPool::Options popt;
  popt.threads = 3;
  popt.record_budget = kBudget;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  std::vector<StreamRun> got(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back([&, t] {
        got[size_t(t)] = RunTenant(t, (*pool)->CreateStream());
      });
    }
    for (auto& c : consumers) c.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(got[size_t(t)].records.size(),
              size_t(kFilesPerTenant) * kRecordsPerFile)
        << "tenant " << t;
    EXPECT_TRUE(got[size_t(t)].status.ok()) << "tenant " << t;
  }
  EXPECT_GT((*pool)->max_records_in_use(), 0u);
  EXPECT_LE((*pool)->max_records_in_use(), kBudget);
  // Everything was drained and released: the ledger balances to zero.
  EXPECT_EQ((*pool)->records_in_use(), 0u);
}

TEST_F(StreamPoolTest, VendedStreamDefaultsComeFromThePool) {
  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = 96;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());
  StreamRun run = RunTenant(0, (*pool)->CreateStream());
  EXPECT_EQ(run.records.size(), size_t(kFilesPerTenant) * kRecordsPerFile);
  // The default cap is the pool's whole budget.
  EXPECT_GT(run.max_records_buffered, 0u);
  EXPECT_LE(run.max_records_buffered, 96u);
}

TEST_F(StreamPoolTest, BudgetSmallerThanSubsetFileCountFailsTheStream) {
  // 6 files in the subset, budget 3: chunked decode needs one buffered
  // record per file to merge, so the stream must terminate with the
  // exact diagnostic instead of deadlocking.
  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = 3;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());
  StreamRun run = RunTenant(0, (*pool)->CreateStream());
  EXPECT_TRUE(run.records.empty());
  EXPECT_EQ(run.status.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(run.status.message(),
            "memory governor budget (3 records) is smaller than the subset "
            "file count (6 files); chunked decode needs one buffered record "
            "per file");
}

TEST_F(StreamPoolTest, WeightedTenantsMatchTheSyncStreamAndShowInStats) {
  // A weight-4 "live" tenant sharing the pool with a weight-1 backfill:
  // scheduling weight changes *when* decode tasks run, never *what* the
  // streams emit.
  StreamRun expect0 = RunSync(0);
  StreamRun expect1 = RunSync(1);

  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = 128;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  auto live = (*pool)->CreateStream({}, {.weight = 4, .name = "live"});
  auto backfill =
      (*pool)->CreateStream({}, {.weight = 1, .name = "backfill"});

  StreamRun got0, got1;
  {
    std::vector<std::thread> consumers;
    consumers.emplace_back([&] {
      VectorDataInterface di(archives_[0]);
      live->SetInterval(0, 4102444800);
      live->SetDataInterface(&di);
      EXPECT_TRUE(live->Start().ok());
      got0 = Drain(*live);
    });
    consumers.emplace_back([&] {
      VectorDataInterface di(archives_[1]);
      backfill->SetInterval(0, 4102444800);
      backfill->SetDataInterface(&di);
      EXPECT_TRUE(backfill->Start().ok());
      got1 = Drain(*backfill);
    });
    for (auto& c : consumers) c.join();
  }
  EXPECT_EQ(got0.records, expect0.records);
  EXPECT_EQ(got0.elems, expect0.elems);
  EXPECT_EQ(got1.records, expect1.records);
  EXPECT_EQ(got1.elems, expect1.elems);

  // The Stats() snapshot names and weights the live tenants, and their
  // emitted/decoded counters reflect the finished drains.
  StreamPool::Snapshot snap = (*pool)->Stats();
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[0].name, "live");
  EXPECT_EQ(snap.tenants[0].weight, 4u);
  EXPECT_EQ(snap.tenants[1].name, "backfill");
  EXPECT_EQ(snap.tenants[1].weight, 1u);
  for (const auto& t : snap.tenants) {
    EXPECT_EQ(t.stats.records_emitted,
              size_t(kFilesPerTenant) * kRecordsPerFile)
        << t.name;
    EXPECT_GE(t.stats.files_decoded, size_t(kFilesPerTenant)) << t.name;
    EXPECT_GT(t.stats.tasks_executed, 0u) << t.name;
    EXPECT_EQ(t.stats.records_buffered, 0u) << t.name;  // fully drained
  }
  EXPECT_EQ(snap.executor.threads, 2u);
  EXPECT_GT(snap.executor.tasks_run, 0u);
  EXPECT_GT(snap.executor.dispatch_rounds, 0u);
  EXPECT_EQ(snap.governor.capacity, 128u);
  EXPECT_LE(snap.governor.max_in_use, 128u);
  EXPECT_EQ(snap.streams_created, 2u);

  // Destroyed streams drop out of the snapshot.
  live.reset();
  backfill.reset();
  snap = (*pool)->Stats();
  EXPECT_TRUE(snap.tenants.empty());
  EXPECT_EQ(snap.streams_created, 2u);
}

// A paused consumer keeps its buffered records, and their leases, until
// it resumes. Capping the stream bounds what it can hold, so a rival on
// the same pool still drains its whole archive while the victim sleeps.
TEST_F(StreamPoolTest, PausedTenantWithinItsCapDoesNotStarveARival) {
  StreamRun expect_victim = RunSync(0);
  StreamRun expect_rival = RunSync(1);

  constexpr size_t kBudget = 64;
  constexpr size_t kVictimCap = 2 * kFilesPerTenant;  // 2 records per file
  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = kBudget;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  BgpStream::Options vopt;
  vopt.max_records_in_flight = kVictimCap;
  auto victim = (*pool)->CreateStream(std::move(vopt), {.name = "victim"});
  VectorDataInterface di(archives_[0]);
  victim->SetInterval(0, 4102444800);
  victim->SetDataInterface(&di);
  ASSERT_TRUE(victim->Start().ok());

  StreamRun got;
  auto take = [&](const core::Record& rec) {
    got.records.emplace_back(rec.timestamp, rec.collector,
                             int(rec.dump_type), int(rec.status),
                             int(rec.position));
    for (const auto& e : victim->Elems(rec)) {
      got.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
    }
  };
  for (int i = 0; i < 10; ++i) {
    auto rec = victim->NextRecord();
    ASSERT_TRUE(rec.has_value());
    take(*rec);
  }

  // Paused: the workers top the victim's buffers up to its cap.
  auto deadline_ok = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  ASSERT_TRUE(deadline_ok(
      [&] { return victim->stats().records_buffered == kVictimCap; }));
  EXPECT_LE((*pool)->records_in_use(), kVictimCap);

  // The rival drains its whole archive while the victim stays paused.
  // Were it starved, destroying the victim frees the budget so the
  // join returns and the test fails instead of hanging.
  StreamRun rival;
  std::atomic<bool> rival_done{false};
  std::thread rival_thread([&] {
    rival = RunTenant(1, (*pool)->CreateStream({}, {.name = "rival"}));
    rival_done = true;
  });
  bool rival_finished = deadline_ok([&] { return rival_done.load(); });
  if (!rival_finished) victim.reset();
  rival_thread.join();
  ASSERT_TRUE(rival_finished) << "the paused victim starved the rival";
  EXPECT_TRUE(rival.status.ok()) << rival.status.ToString();
  EXPECT_EQ(rival.records, expect_rival.records);
  EXPECT_EQ(rival.elems, expect_rival.elems);
  // Nothing was taken back from the paused victim.
  EXPECT_EQ(victim->stats().records_buffered, kVictimCap);

  // Resumed, the victim's full output is the synchronous stream's.
  while (auto rec = victim->NextRecord()) take(*rec);
  EXPECT_TRUE(victim->status().ok()) << victim->status().ToString();
  EXPECT_EQ(got.records, expect_victim.records);
  EXPECT_EQ(got.elems, expect_victim.elems);

  victim.reset();
  EXPECT_LE((*pool)->max_records_in_use(), kBudget);
  EXPECT_EQ((*pool)->records_in_use(), 0u);
  EXPECT_TRUE((*pool)->governor()->health().ok());
}

// A stream destroyed while its consumer holds a partly drained chunk
// returns every lease. The chunk's records stay leased until the
// source's next take, so dropping the source must hand them back.
TEST_F(StreamPoolTest, StreamDroppedMidChunkReturnsEveryLease) {
  StreamPool::Options popt;
  popt.threads = 1;
  popt.record_budget = 256;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());
  auto stream = (*pool)->CreateStream();
  // One file, alone in its subset: the source takes its first decode
  // leg's chunk whole (8 records), so after 3 records it holds a partly
  // drained chunk, still leased.
  VectorDataInterface di({archives_[0][0]});
  stream->SetInterval(0, 4102444800);
  stream->SetDataInterface(&di);
  ASSERT_TRUE(stream->Start().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(stream->NextRecord().has_value());
  EXPECT_GT(stream->stats().records_buffered, 3u);
  EXPECT_GT((*pool)->records_in_use(), 3u);

  stream.reset();
  EXPECT_EQ((*pool)->records_in_use(), 0u);
  EXPECT_TRUE((*pool)->governor()->health().ok())
      << (*pool)->governor()->health().ToString();
}

TEST_F(StreamPoolTest, StatsSnapshotInvariantsHoldUnderConcurrentStreams) {
  // 4 tenants stream concurrently while a sampler hammers Stats():
  // every snapshot must satisfy the ledger and scheduling invariants.
  constexpr size_t kBudget = 96;
  StreamPool::Options popt;
  popt.threads = 4;
  popt.record_budget = kBudget;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  std::atomic<bool> done{false};
  std::thread sampler([&] {
    size_t prev_tasks = 0, prev_rounds = 0, snapshots = 0;
    while (!done.load()) {
      StreamPool::Snapshot s = (*pool)->Stats();
      ++snapshots;
      EXPECT_EQ(s.governor.capacity, kBudget);
      EXPECT_LE(s.governor.in_use, kBudget);
      EXPECT_LE(s.governor.max_in_use, kBudget);
      EXPECT_LE(s.tenants.size(), size_t(kTenants));
      for (const auto& t : s.tenants) {
        EXPECT_LE(t.stats.records_buffered, kBudget) << t.name;
        EXPECT_LE(t.stats.records_emitted,
                  size_t(kFilesPerTenant) * kRecordsPerFile)
            << t.name;
        EXPECT_EQ(t.weight, 1u + (t.name == "t0" ? 3u : 0u)) << t.name;
      }
      EXPECT_EQ(s.executor.threads, 4u);
      EXPECT_GE(s.executor.tasks_run, prev_tasks);       // monotonic
      EXPECT_GE(s.executor.dispatch_rounds, prev_rounds);  // monotonic
      prev_tasks = s.executor.tasks_run;
      prev_rounds = s.executor.dispatch_rounds;
    }
    EXPECT_GT(snapshots, 0u);
  });

  std::vector<StreamRun> got(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back([&, t] {
        StreamPool::TenantOptions topt;
        topt.weight = t == 0 ? 4 : 1;
        topt.name = "t" + std::to_string(t);
        got[size_t(t)] =
            RunTenant(t, (*pool)->CreateStream({}, std::move(topt)));
      });
    }
    for (auto& c : consumers) c.join();
  }
  done = true;
  sampler.join();

  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(got[size_t(t)].records.size(),
              size_t(kFilesPerTenant) * kRecordsPerFile)
        << "tenant " << t;
    EXPECT_TRUE(got[size_t(t)].status.ok()) << "tenant " << t;
  }
  // Quiesced: every tenant gone, ledger balanced.
  StreamPool::Snapshot end = (*pool)->Stats();
  EXPECT_TRUE(end.tenants.empty());
  EXPECT_EQ(end.governor.in_use, 0u);
  EXPECT_EQ(end.executor.tenants, 0u);
  EXPECT_EQ(end.streams_created, size_t(kTenants));
}

TEST_F(StreamPoolTest, GovernorOverReleaseSurfacesThroughStreamStatus) {
  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = 64;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  auto stream = (*pool)->CreateStream();
  VectorDataInterface di(archives_[0]);
  stream->SetInterval(0, 4102444800);
  stream->SetDataInterface(&di);
  ASSERT_TRUE(stream->Start().ok());
  ASSERT_TRUE(stream->NextRecord().has_value());

  // Simulate a double-release accounting bug: far more slots than are
  // leased. The stream must terminate with the governor's latched
  // diagnostic instead of hanging or quietly inflating the budget.
  (*pool)->governor()->Release(100000);
  while (stream->NextRecord()) {
  }
  EXPECT_FALSE(stream->status().ok());
  EXPECT_NE(stream->status().message().find("double release"),
            std::string::npos);
  EXPECT_FALSE((*pool)->governor()->health().ok());
}

TEST_F(StreamPoolTest, StartRejectsBadTenantKnobsWithExactMessages) {
  StreamPool::Options popt;
  popt.threads = 2;
  popt.record_budget = 64;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());
  {
    auto stream = (*pool)->CreateStream({}, {.weight = 0, .name = "zero"});
    VectorDataInterface di(archives_[0]);
    stream->SetInterval(0, 4102444800);
    stream->SetDataInterface(&di);
    Status st = stream->Start();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::tenant_weight must be >= 1 (a zero-weight tenant "
              "would never be dispatched)");
  }
  {
    BgpStream::Options opt;
    opt.max_records_in_flight = 16;  // synchronous: nothing to cap
    BgpStream stream(std::move(opt));
    VectorDataInterface di(archives_[0]);
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    Status st = stream.Start();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "executor, governor and max_records_in_flight require "
              "prefetch_subsets > 0 (the synchronous path never decodes "
              "off-thread)");
  }
}

TEST(StreamPoolCreateTest, RejectsZeroKnobsWithExactMessages) {
  {
    auto pool = StreamPool::Create({.threads = 0});
    ASSERT_FALSE(pool.ok());
    EXPECT_EQ(pool.status().message(), "StreamPool requires threads > 0");
  }
  {
    auto pool = StreamPool::Create({.threads = 2, .record_budget = 0});
    ASSERT_FALSE(pool.ok());
    EXPECT_EQ(pool.status().message(),
              "StreamPool requires record_budget > 0");
  }
}

// The one stats serializer bgpreader, bgpfanout and bgplive share:
// every section and tenant field present, tenant names escaped.
TEST(StreamPoolStatsJsonTest, EmitsEveryFieldAndEscapesTenantNames) {
  StreamPool::Snapshot snap;
  snap.executor = {.threads = 2, .tasks_run = 7, .dispatch_rounds = 5,
                   .tenants = 1};
  snap.governor = {.capacity = 64, .in_use = 3, .max_in_use = 9,
                   .waiting = 1};
  snap.streams_created = 4;
  StreamPool::Snapshot::Tenant t;
  t.name = std::string("a\"b\\c") + char(0x01) + "d";
  t.weight = 4;
  t.stats = {.records_emitted = 11, .queue_depth = 2, .tasks_executed = 6,
             .files_decoded = 3, .records_buffered = 8};
  snap.tenants.push_back(t);
  EXPECT_EQ(SnapshotJson(snap),
            "{\"executor\":{\"threads\":2,\"tasks_run\":7,"
            "\"dispatch_rounds\":5,\"tenants\":1},"
            "\"governor\":{\"capacity\":64,\"in_use\":3,\"max_in_use\":9,"
            "\"waiting\":1},\"streams_created\":4,"
            "\"tenants\":[{\"name\":\"a\\\"b\\\\c\\u0001d\",\"weight\":4,"
            "\"queue_depth\":2,\"tasks_executed\":6,"
            "\"files_decoded\":3,\"records_buffered\":8,"
            "\"records_emitted\":11}]}");
}

}  // namespace
}  // namespace bgps
