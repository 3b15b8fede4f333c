// End-to-end tests of the asynchronous pipeline: streams decoding on
// an injected executor and governor (pool-vended or wired by hand) must
// emit the byte-identical record *and elem* sequence of the synchronous
// stream at every depth and cap, live mode must keep strict client-pull
// semantics, Start() must reject invalid knob combinations exactly, and
// the per-subset cap must bound memory.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <tuple>

#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "pool/stream_pool.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// Fingerprint of one record (provenance + status + position) and of each
// of its elems (type, time, VP, prefix, path) — strong enough that a
// reordering, loss, or filter divergence between pipeline configurations
// cannot cancel out.
using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  size_t subsets = 0;
  size_t max_open = 0;
  size_t max_records_buffered = 0;
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
  out.subsets = stream.subsets_merged();
  out.max_open = stream.max_open_files();
  out.max_records_buffered = stream.max_records_buffered();
  return out;
}

// A two-worker pool with a roomy budget.
std::unique_ptr<bgps::StreamPool> MakePool(size_t threads = 2,
                                           size_t budget = 4096) {
  auto pool = bgps::StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  EXPECT_TRUE(pool.ok());
  return std::move(*pool);
}

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
  }

  // Streams the whole archive through a broker with a small response
  // window so multiple DataBatches flow (exercising batch boundaries).
  // When `pool` is given the stream is vended from it (the shared
  // decode runtime); otherwise it is a standalone BgpStream.
  StreamRun Run(BgpStream::Options options,
                bgps::StreamPool* pool = nullptr) {
    broker::Broker::Options bopt;
    bopt.clock = [] { return Timestamp(4102444800); };
    bopt.window = 900;  // 1-hour archive -> ~4 batches
    broker::Broker broker(root_, bopt);
    BrokerDataInterface di(&broker);
    std::unique_ptr<BgpStream> stream =
        pool ? pool->CreateStream(std::move(options))
             : std::make_unique<BgpStream>(std::move(options));
    stream->SetInterval(start_, end_);
    stream->SetDataInterface(&di);
    EXPECT_TRUE(stream->Start().ok());
    StreamRun run = Drain(*stream);
    EXPECT_TRUE(stream->status().ok());
    return run;
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
};

TEST_F(PipelineEquivalenceTest, AllConfigurationsEmitIdenticalStreams) {
  StreamRun sync = Run({});
  ASSERT_GT(sync.records.size(), 100u);
  ASSERT_GT(sync.elems.size(), 100u);

  // Pool-vended streams at several decode-ahead depths and per-subset
  // caps. Tiny caps force many refill bursts per file, so the per-dump
  // arena state (AS-path cache, interned provenance, reused frame
  // buffer) is exercised across task boundaries — the zero-copy decode
  // path must still be byte-invisible in the output.
  struct Config {
    size_t depth;
    size_t cap;  // 0 = the pool's whole budget
  };
  const Config configs[] = {{1, 0}, {2, 64}, {3, 8}, {3, 256}, {4, 0}};
  auto pool = MakePool();
  for (const Config& c : configs) {
    BgpStream::Options opt;
    opt.prefetch_subsets = c.depth;
    opt.max_records_in_flight = c.cap;
    StreamRun run = Run(std::move(opt), pool.get());
    std::string name =
        "depth " + std::to_string(c.depth) + " cap " + std::to_string(c.cap);
    EXPECT_EQ(run.records, sync.records) << name;
    EXPECT_EQ(run.elems, sync.elems) << name;
    EXPECT_EQ(run.subsets, sync.subsets) << name;
    EXPECT_EQ(run.max_open, sync.max_open) << name;
  }
}

TEST_F(PipelineEquivalenceTest, SharedStreamPoolEmitsIdenticalStreams) {
  StreamRun sync = Run({});
  ASSERT_GT(sync.records.size(), 100u);

  // K = 3 concurrent tenants on one 4-thread Executor + one governor,
  // all streaming the same archive: each must reproduce the synchronous
  // fingerprint exactly.
  auto pool = MakePool(4, 256);
  constexpr int kTenants = 3;
  std::vector<StreamRun> runs(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back(
          [&, t] { runs[size_t(t)] = Run({}, pool.get()); });
    }
    for (auto& c : consumers) c.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(runs[size_t(t)].records, sync.records) << "tenant " << t;
    EXPECT_EQ(runs[size_t(t)].elems, sync.elems) << "tenant " << t;
    EXPECT_EQ(runs[size_t(t)].subsets, sync.subsets) << "tenant " << t;
  }
  EXPECT_LE(pool->max_records_in_use(), 256u);
}

TEST_F(PipelineEquivalenceTest, LivePoolStreamStreamsArchiveToCompletion) {
  Timestamp now = start_ + 301;
  broker::Broker::Options bopt;
  bopt.clock = [&now] { return now; };
  broker::Broker broker(root_, bopt);
  BrokerDataInterface di(&broker);

  BgpStream::Options opt;
  opt.poll_wait = [&] { now += 300; };
  opt.max_consecutive_polls = 500;
  auto pool = MakePool();
  auto stream = pool->CreateStream(std::move(opt));
  stream->SetLive(start_);
  stream->SetDataInterface(&di);
  ASSERT_TRUE(stream->Start().ok());
  size_t records = 0;
  while (auto rec = stream->NextRecord()) ++records;
  EXPECT_GT(records, 100u);
}

// A data interface that never has data: live mode must give up after
// exactly max_consecutive_polls empty polls on the async path too.
class NeverReadyInterface : public DataInterface {
 public:
  DataBatch NextBatch(const FilterSet&) override {
    DataBatch b;
    b.retry_later = true;
    return b;
  }
  void Refresh() override { ++refreshes; }
  size_t refreshes = 0;
};

TEST(PipelineLiveTest, PollCapIsExactOnPoolStream) {
  NeverReadyInterface di;
  BgpStream::Options opt;
  size_t polls = 0;
  opt.poll_wait = [&polls] { ++polls; };
  opt.max_consecutive_polls = 7;
  auto pool = MakePool();
  auto stream = pool->CreateStream(std::move(opt));
  stream->SetLive(0);
  stream->SetDataInterface(&di);
  ASSERT_TRUE(stream->Start().ok());
  EXPECT_EQ(stream->NextRecord(), std::nullopt);
  EXPECT_EQ(polls, 6u);
  EXPECT_EQ(di.refreshes, 6u);
  // Client-pull: exactly one data-interface query per poll.
  EXPECT_EQ(stream->batches_fetched(), 7u);
}

Status StartStatus(BgpStream::Options opt) {
  NeverReadyInterface di;
  BgpStream stream(std::move(opt));
  stream.SetInterval(0, 100);
  stream.SetDataInterface(&di);
  return stream.Start();
}

// The asynchronous path exists only on an injected runtime: without an
// executor and a governor there is nothing to decode on or lease from.
TEST(PipelineOptionsTest, PrefetchWithoutInjectedRuntimeFailsStart) {
  const std::string expect =
      "prefetch_subsets > 0 requires Options::executor and "
      "Options::governor (bgps::StreamPool::CreateStream injects both)";
  auto executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
  auto governor = std::make_shared<MemoryGovernor>(64);
  for (int mask = 0; mask < 3; ++mask) {  // neither, executor, governor
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    if (mask == 1) opt.executor = executor;
    if (mask == 2) opt.governor = governor;
    Status st = StartStatus(std::move(opt));
    ASSERT_FALSE(st.ok()) << mask;
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << mask;
    EXPECT_EQ(st.message(), expect) << mask;
  }
}

// Start() validation of the runtime-layer knobs, with the exact
// diagnostics users will see.
TEST(PipelineOptionsTest, RuntimeLayerKnobCombosFailStartExactly) {
  const std::string sync_only =
      "executor, governor, max_records_in_flight and idle_reclaim_rounds "
      "require prefetch_subsets > 0 (the synchronous path never decodes "
      "off-thread)";
  {
    // Each async knob on the synchronous path.
    BgpStream::Options executor_only;
    executor_only.executor = std::make_shared<Executor>(Executor::Options{});
    BgpStream::Options governor_only;
    governor_only.governor = std::make_shared<MemoryGovernor>(64);
    BgpStream::Options cap_only;
    cap_only.max_records_in_flight = 64;
    BgpStream::Options reclaim_only;
    reclaim_only.idle_reclaim_rounds = 10;
    for (auto& opt : {executor_only, governor_only, cap_only, reclaim_only}) {
      Status st = StartStatus(opt);
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.message(), sync_only);
    }
  }
  {
    // Zero-thread executor: tasks would queue forever.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 0});
    opt.governor = std::make_shared<MemoryGovernor>(64);
    Status st = StartStatus(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::executor has no worker threads (decode tasks would "
              "never run)");
  }
  {
    // A zero-record budget could never cover any subset's floor slots.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
    opt.governor = std::make_shared<MemoryGovernor>(0);
    Status st = StartStatus(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "Options::governor budget must be > 0 records");
  }
  {
    // And the happy paths with both injected start fine, with or
    // without an explicit per-subset cap.
    for (size_t cap : {size_t(0), size_t(64)}) {
      BgpStream::Options opt;
      opt.prefetch_subsets = 2;
      opt.max_records_in_flight = cap;
      opt.idle_reclaim_rounds = 10;
      opt.executor =
          std::make_shared<Executor>(Executor::Options{.threads = 2});
      opt.governor = std::make_shared<MemoryGovernor>(64);
      EXPECT_TRUE(StartStatus(std::move(opt)).ok()) << cap;
    }
  }
}

// --- per-subset memory bound ----------------------------------------------

// Hands the whole file set to the stream in one batch, then ends.
class VectorDataInterface : public DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  DataBatch NextBatch(const FilterSet&) override {
    DataBatch batch;
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

// Emulates one large RIB-style subset (paper §3.3.4): many files with
// fully overlapping intervals, each holding a few hundred records.
void WriteOverlappingArchive(const std::string& dir, int files,
                             int records_per_file) {
  std::filesystem::create_directories(dir);
  for (int f = 0; f < files; ++f) {
    Timestamp start = 1458000000 + f;
    mrt::MrtFileWriter w;
    std::string path =
        (std::filesystem::path(dir) / (std::to_string(f) + ".mrt")).string();
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < records_per_file; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65000 + bgp::Asn(f);
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, uint8_t(f), 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path =
          bgp::AsPath::Sequence({65000 + bgp::Asn(f), 3356, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, uint8_t(f), 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(uint32_t(10 + i) << 24), 16));
      ASSERT_TRUE(
          w.Write(mrt::EncodeBgp4mpUpdate(start + Timestamp(i) * 5, m)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
}

class ChunkedStressTest : public ::testing::Test {
 protected:
  static constexpr int kFiles = 40;
  static constexpr int kRecordsPerFile = 250;

  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bgps_chunked_stress_" + std::to_string(::getpid())))
               .string();
    WriteOverlappingArchive(dir_, kFiles, kRecordsPerFile);
    ASSERT_FALSE(HasFatalFailure());
    for (int f = 0; f < kFiles; ++f) {
      DumpFileMeta meta;
      meta.project = "stress";
      meta.collector = "c" + std::to_string(f);
      meta.type = DumpType::Updates;
      meta.start = 1458000000 + f;
      meta.duration = 3600;
      meta.path =
          (std::filesystem::path(dir_) / (std::to_string(f) + ".mrt")).string();
      files_.push_back(std::move(meta));
    }
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StreamRun Run(std::unique_ptr<BgpStream> stream) {
    VectorDataInterface di(files_);
    stream->SetInterval(0, 4102444800);
    stream->SetDataInterface(&di);
    EXPECT_TRUE(stream->Start().ok());
    StreamRun run = Drain(*stream);
    EXPECT_TRUE(stream->status().ok());
    return run;
  }
  StreamRun RunSync() { return Run(std::make_unique<BgpStream>()); }

  std::string dir_;
  std::vector<DumpFileMeta> files_;
};

TEST_F(ChunkedStressTest, BoundedBuffersStreamALargeSubsetIdentically) {
  StreamRun sync = RunSync();
  ASSERT_EQ(sync.records.size(), size_t(kFiles) * kRecordsPerFile);
  ASSERT_EQ(sync.subsets, 1u);  // fully overlapping: one giant subset

  constexpr size_t kBound = 120;  // 3 records per file vs 250 materialized
  auto pool = MakePool();
  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.max_records_in_flight = kBound;
  StreamRun chunked = Run(pool->CreateStream(std::move(opt)));

  EXPECT_EQ(chunked.records, sync.records);
  EXPECT_EQ(chunked.elems, sync.elems);
  EXPECT_GT(chunked.max_records_buffered, 0u);
  // The bound is per in-flight subset; a single subset must respect it
  // exactly.
  EXPECT_LE(chunked.max_records_buffered, kBound);
}

// The arena pipeline — DumpReader's per-dump AS-path intern cache,
// arena-backed keys, and zero-copy record bodies — must be invisible in
// the decoded output: record for record identical to a cache-free
// DecodeRecord baseline over the same raw bytes.
TEST_F(ChunkedStressTest, ArenaCachedDecodeMatchesCacheFreeBaseline) {
  auto fingerprint = [](Timestamp ts, const mrt::Bgp4mpMessage& m) {
    std::string fp = std::to_string(ts);
    fp += '|';
    fp += m.update.attrs.as_path.ToString();
    fp += '|';
    for (const auto& p : m.update.announced) {
      fp += p.ToString();
      fp += ',';
    }
    return fp;
  };

  // Baseline: raw framing + decode with no AttrDecodeCtx (every AS path
  // decoded from the wire bytes, no cache, no arena).
  std::vector<std::string> expect;
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(files_[0].path).ok());
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw, /*ctx=*/nullptr);
      ASSERT_TRUE(msg.ok());
      expect.push_back(
          fingerprint(msg->timestamp, std::get<mrt::Bgp4mpMessage>(msg->body)));
    }
  }
  ASSERT_EQ(expect.size(), size_t(kRecordsPerFile));

  // The arena pipeline: DumpReader threads its per-dump cache into
  // every decode (repeat AS paths come out of the cache, keys live in
  // the dump's arena).
  std::vector<std::string> got;
  DumpReader reader(files_[0]);
  while (auto rec = reader.Next()) {
    ASSERT_EQ(rec->status, RecordStatus::Valid);
    got.push_back(fingerprint(rec->timestamp,
                              std::get<mrt::Bgp4mpMessage>(rec->msg.body)));
  }
  EXPECT_EQ(got, expect);
}

// A stream wired to an executor and governor by hand, with the cap left
// at 0, buffers up to the governor's capacity per subset — split across
// the 40 files — and still emits exactly the synchronous stream.
TEST_F(ChunkedStressTest, DefaultCapIsTheGovernorCapacity) {
  StreamRun sync = RunSync();
  ASSERT_EQ(sync.records.size(), size_t(kFiles) * kRecordsPerFile);

  constexpr size_t kCapacity = 200;  // 5 records per file
  auto governor = std::make_shared<MemoryGovernor>(kCapacity);
  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
  opt.governor = governor;
  StreamRun run = Run(std::make_unique<BgpStream>(std::move(opt)));

  EXPECT_EQ(run.records, sync.records);
  EXPECT_EQ(run.elems, sync.elems);
  EXPECT_GT(run.max_records_buffered, 0u);
  EXPECT_LE(run.max_records_buffered, kCapacity);
  EXPECT_LE(governor->max_in_use(), kCapacity);
  EXPECT_EQ(governor->in_use(), 0u);  // drained: every lease returned
}

}  // namespace
}  // namespace bgps::core
