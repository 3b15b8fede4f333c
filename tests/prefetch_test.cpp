// Tests of the asynchronous prefetching decode stage (paper §3.1): the
// PrefetchDecoder itself on an injected executor and governor, and
// BgpStream equivalence between the synchronous and prefetched paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "core/prefetch.hpp"
#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// A subset of intentionally unopenable files: each decodes to exactly one
// CorruptedDump record, which makes decoder output fully deterministic
// without touching disk.
std::vector<DumpFileMeta> BogusSubset(const std::string& tag, size_t n) {
  std::vector<DumpFileMeta> files;
  for (size_t i = 0; i < n; ++i) {
    DumpFileMeta f;
    f.project = "test";
    f.collector = tag + "-" + std::to_string(i);
    f.type = DumpType::Updates;
    f.start = Timestamp(1000 * (i + 1));
    f.duration = 300;
    f.path = "/nonexistent/" + tag + "/" + std::to_string(i) + ".mrt";
    files.push_back(f);
  }
  return files;
}

// Decoder options on a fresh executor and governor: the runtime a
// StreamPool injects, without the pool.
PrefetchDecoder::Options FreshRuntime(size_t threads, size_t budget) {
  PrefetchDecoder::Options opt;
  opt.executor =
      std::make_shared<Executor>(Executor::Options{.threads = threads});
  opt.governor = std::make_shared<MemoryGovernor>(budget);
  return opt;
}

// Submits `subset` per the Options::governor contract: one floor slot
// per file first.
void SubmitWithFloors(PrefetchDecoder& decoder, MemoryGovernor& governor,
                      std::vector<DumpFileMeta> subset) {
  ASSERT_TRUE(governor.TryAcquire(subset.size()));
  decoder.Submit(std::move(subset));
}

// Regression: a tenant's file *open* must not wait behind a rival
// tenant's whole decode burst. The fill task used to open the file and
// decode to buffer capacity in one task, so on a busy pool a queued
// open (pure archive latency) sat behind an entire CPU burst. Post-fix
// the open is its own task that re-submits the burst, so round-robin
// runs the next tenant's open first — at B's open hook, A has opened
// but buffered nothing yet.
TEST(PrefetchDecoderTest, OpenDoesNotWaitBehindRivalDecodeBurst) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_open_split_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto write_updates = [&](const std::string& name, size_t n) {
    std::string path = (dir / name).string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < n; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0),
                 24));
      EXPECT_TRUE(w.Write(mrt::EncodeBgp4mpUpdate(
                              1458000000 + Timestamp(i), m)).ok());
    }
    EXPECT_TRUE(w.Close().ok());
    return path;
  };
  auto meta_for = [](const std::string& path, const std::string& collector) {
    DumpFileMeta meta;
    meta.project = "test";
    meta.collector = collector;
    meta.type = DumpType::Updates;
    meta.start = 1458000000;
    meta.duration = 3600;
    meta.path = path;
    return meta;
  };
  DumpFileMeta meta_a = meta_for(write_updates("a.mrt", 200), "tenant-a");
  DumpFileMeta meta_b = meta_for(write_updates("b.mrt", 50), "tenant-b");

  auto wait_for = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };

  // One worker, blocked by a gate tenant while both decoders enqueue
  // their initial fills — so the claim order after the gate opens is
  // decided purely by round-robin over the weight-1 tenants.
  auto ex = std::make_shared<Executor>(Executor::Options{.threads = 1});
  auto gate_tenant = ex->CreateTenant();
  std::promise<void> gate;
  std::shared_future<void> opened_gate = gate.get_future().share();
  std::atomic<bool> gate_entered{false};
  gate_tenant->Submit([opened_gate, &gate_entered] {
    gate_entered.store(true);
    opened_gate.wait();
  });
  ASSERT_TRUE(wait_for([&] { return gate_entered.load(); }));

  auto gov = std::make_shared<MemoryGovernor>(64);
  PrefetchDecoder::Options opt_a;
  opt_a.executor = ex;
  opt_a.governor = gov;
  opt_a.max_records_in_flight = 16;
  PrefetchDecoder a(std::move(opt_a));

  std::atomic<bool> b_opened{false};
  std::atomic<size_t> a_buffered_at_b_open{size_t(-1)};
  PrefetchDecoder::Options opt_b;
  opt_b.executor = ex;
  opt_b.governor = gov;
  opt_b.max_records_in_flight = 16;
  opt_b.file_open_hook = [&](const DumpFileMeta&) {
    a_buffered_at_b_open.store(a.buffered_records());
    b_opened.store(true);
  };
  PrefetchDecoder b(std::move(opt_b));

  // The cursor reaches A first: A opens first...
  SubmitWithFloors(a, *gov, {meta_a});
  SubmitWithFloors(b, *gov, {meta_b});
  auto sources_a = a.NextSources();
  auto sources_b = b.NextSources();
  gate.set_value();

  ASSERT_TRUE(wait_for([&] { return b_opened.load(); }));
  // ...but A's decode burst is queued only after A's open, when the
  // cursor has moved on to B, so B opens before A buffers anything.
  // Pre-fix, A's single open+decode task had already filled its buffer
  // to capacity (16) when B's open finally ran.
  EXPECT_EQ(a_buffered_at_b_open.load(), 0u);

  // Sanity: both streams still decode completely and in order.
  std::vector<Timestamp> got_a, got_b;
  while (auto rec = sources_a[0]->Next()) got_a.push_back(rec->timestamp);
  while (auto rec = sources_b[0]->Next()) got_b.push_back(rec->timestamp);
  ASSERT_EQ(got_a.size(), 200u);
  ASSERT_EQ(got_b.size(), 50u);
  for (size_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a[i], Timestamp(1458000000 + i)) << i;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A directory of small update dumps, removed with the test.
class UpdateDumps {
 public:
  explicit UpdateDumps(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             (tag + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
  }
  ~UpdateDumps() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // Writes `n` one-prefix updates, one a second from kStart, and returns
  // the dump's meta under `collector`.
  DumpFileMeta Write(const std::string& collector, size_t n) {
    std::string path = (dir_ / (collector + ".mrt")).string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < n; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(Prefix(
          IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0), 24));
      EXPECT_TRUE(
          w.Write(mrt::EncodeBgp4mpUpdate(kStart + Timestamp(i), m)).ok());
    }
    EXPECT_TRUE(w.Close().ok());
    DumpFileMeta meta;
    meta.project = "test";
    meta.collector = collector;
    meta.type = DumpType::Updates;
    meta.start = kStart;
    meta.duration = 3600;
    meta.path = path;
    return meta;
  }

  static constexpr Timestamp kStart = 1458000000;

 private:
  std::filesystem::path dir_;
};

// Holds the executor's only worker in a task of its own tenant until
// Open(), so every task queued meanwhile is claimed in round-robin
// order afterwards.
class WorkerGate {
 public:
  explicit WorkerGate(Executor& ex) : tenant_(ex.CreateTenant()) {
    std::promise<void> entered;
    std::future<void> entered_future = entered.get_future();
    tenant_->Submit([this, &entered] {
      entered.set_value();
      open_.get_future().wait();
    });
    entered_future.wait();
  }
  void Open() { open_.set_value(); }

 private:
  std::promise<void> open_;
  std::unique_ptr<Executor::Tenant> tenant_;
};

// With one worker and a multi-file subset, each file's first decode leg
// yields after one record, so the merge can emit its first record once
// every file has decoded one, not after the earlier files' whole bursts
// (there, the last file's first record came after (files - 1) ×
// capacity decoded records). A probe tenant samples buffered_records()
// between the decoder's tasks; with one worker no decode runs during a
// sample, and no consumer runs until the probes are done.
TEST(PrefetchDecoderTest, MultiFileSubsetFillsTheMergeAfterOneRecordPerFile) {
  constexpr size_t kFiles = 3;
  constexpr size_t kRecords = 200;
  constexpr size_t kCapacity = 64;  // per file
  UpdateDumps dumps("bgps_lead_leg_test_");
  std::vector<DumpFileMeta> subset;
  for (size_t f = 0; f < kFiles; ++f) {
    subset.push_back(dumps.Write("c" + std::to_string(f), kRecords));
  }

  auto ex = std::make_shared<Executor>(Executor::Options{.threads = 1});
  WorkerGate gate(*ex);
  auto gov = std::make_shared<MemoryGovernor>(1024);
  PrefetchDecoder::Options opt;
  opt.executor = ex;
  opt.governor = gov;
  opt.max_records_in_flight = kFiles * kCapacity;
  PrefetchDecoder decoder(std::move(opt));

  // Created after the decoder's tenant, so the cursor alternates: one
  // decoder task, then one sample.
  constexpr size_t kProbes = 12;
  std::vector<size_t> samples;  // touched only by the worker until `probed`
  std::promise<void> probed;
  auto probe = ex->CreateTenant();
  for (size_t i = 0; i < kProbes; ++i) {
    probe->Submit([&, i] {
      samples.push_back(decoder.buffered_records());
      if (i + 1 == kProbes) probed.set_value();
    });
  }
  SubmitWithFloors(decoder, *gov, subset);
  auto sources = decoder.NextSources();
  gate.Open();
  probed.get_future().wait();

  // The first sample with as many records as files holds exactly one
  // record per file: the opens, then one one-record leg per file.
  auto heap_full = std::find_if(samples.begin(), samples.end(),
                                [](size_t n) { return n >= kFiles; });
  ASSERT_NE(heap_full, samples.end());
  EXPECT_EQ(*heap_full, kFiles)
      << "samples: " << ::testing::PrintToString(samples);

  // The merge still emits every record, ties in file order.
  MultiWayMerge merge(std::move(sources));
  size_t i = 0;
  for (; auto rec = merge.Next(); ++i) {
    ASSERT_LT(i, kFiles * kRecords);
    EXPECT_EQ(rec->timestamp, UpdateDumps::kStart + Timestamp(i / kFiles));
    EXPECT_EQ(rec->collector, "c" + std::to_string(i % kFiles));
  }
  EXPECT_EQ(i, kFiles * kRecords);
}

// A file alone in its subset, as every live micro-dump is, takes two
// decoder tasks: the open leg and one decode leg. There is no merge heap
// to fill, so no one-record lead leg; and the leg that decodes the last
// record also ends the file, although its chunk (half the buffer) is
// exactly the file, instead of leaving the end to a third task.
TEST(PrefetchDecoderTest, OneFileSubsetFinishesInOpenLegPlusOneDecodeLeg) {
  UpdateDumps dumps("bgps_one_file_legs_test_");
  for (size_t records : {1, 3}) {
    SCOPED_TRACE(records);
    DumpFileMeta meta = dumps.Write("solo" + std::to_string(records), records);
    PrefetchDecoder::Options opt = FreshRuntime(1, 64);
    opt.max_records_in_flight = 2 * records;
    auto ex = opt.executor;
    auto gov = opt.governor;
    PrefetchDecoder decoder(std::move(opt));
    SubmitWithFloors(decoder, *gov, {meta});
    auto sources = decoder.NextSources();
    size_t got = 0;
    while (sources[0]->Next()) ++got;
    EXPECT_EQ(got, records);

    // The file has ended, so only a running leg could still queue a
    // task. Once a task of another tenant has run on the one worker,
    // every decoder task claimed before it is counted, and any queued
    // since would still be queued.
    auto sentinel = ex->CreateTenant();
    std::promise<void> ran;
    sentinel->Submit([&ran] { ran.set_value(); });
    ran.get_future().wait();
    EXPECT_EQ(decoder.queued_tasks(), 0u);
    EXPECT_EQ(decoder.tenant_tasks_run(), 2u);
  }
}

TEST(PrefetchDecoderTest, ReturnsSubsetsInSubmitOrderWithFileOrderKept) {
  PrefetchDecoder::Options opt = FreshRuntime(3, 64);
  auto gov = opt.governor;
  PrefetchDecoder decoder(std::move(opt));

  SubmitWithFloors(decoder, *gov, BogusSubset("a", 5));
  SubmitWithFloors(decoder, *gov, BogusSubset("b", 3));
  SubmitWithFloors(decoder, *gov, BogusSubset("c", 1));
  EXPECT_EQ(decoder.outstanding(), 3u);

  auto a = decoder.NextSources();
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->meta().collector, "a-" + std::to_string(i));
    auto rec = a[i]->Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    EXPECT_EQ(a[i]->Next(), std::nullopt);  // one record per bogus file
  }
  auto b = decoder.NextSources();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0]->meta().collector, "b-0");
  auto c = decoder.NextSources();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0]->meta().collector, "c-0");
  EXPECT_EQ(decoder.outstanding(), 0u);
  for (auto* subset : {&b, &c}) {
    for (auto& src : *subset) {
      while (src->Next()) {
      }
    }
  }
  EXPECT_EQ(decoder.files_decoded(), 9u);
}

TEST(PrefetchDecoderTest, DecodesAheadOfConsumption) {
  PrefetchDecoder::Options opt = FreshRuntime(2, 64);
  auto gov = opt.governor;
  PrefetchDecoder decoder(std::move(opt));
  SubmitWithFloors(decoder, *gov, BogusSubset("first", 2));
  SubmitWithFloors(decoder, *gov, BogusSubset("second", 4));

  // Hand out only the first subset (its sources stay alive, undrained),
  // then watch the workers finish the second one on their own — that is
  // the "ahead of the consumer" part.
  auto first = decoder.NextSources();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.files_decoded() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.files_decoded(), 6u);
  EXPECT_EQ(decoder.outstanding(), 1u);  // decoded but not yet handed out
}

TEST(PrefetchDecoderTest, DestructorJoinsWithUnconsumedWork) {
  PrefetchDecoder::Options opt = FreshRuntime(2, 64);
  auto gov = opt.governor;
  PrefetchDecoder decoder(std::move(opt));
  SubmitWithFloors(decoder, *gov, BogusSubset("left", 8));
  // Dropping the decoder with queued/decoded-but-unconsumed work must not
  // hang or crash.
}

TEST(PrefetchDecoderTest, ChunkedSourcesStreamInFileOrder) {
  PrefetchDecoder::Options opt = FreshRuntime(3, 64);
  auto gov = opt.governor;
  opt.max_records_in_flight = 2;  // 5 files -> 1 buffered record per file
  PrefetchDecoder decoder(std::move(opt));
  SubmitWithFloors(decoder, *gov, BogusSubset("a", 5));
  EXPECT_EQ(decoder.outstanding(), 1u);

  auto sources = decoder.NextSources();
  ASSERT_EQ(sources.size(), 5u);
  EXPECT_EQ(decoder.outstanding(), 0u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(sources[i]->meta().collector, "a-" + std::to_string(i));
    ASSERT_TRUE(sources[i]->PeekTimestamp().has_value());
    auto rec = sources[i]->Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    EXPECT_EQ(rec->collector, "a-" + std::to_string(i));
    EXPECT_EQ(sources[i]->Next(), std::nullopt);  // one record per bogus file
  }
  // Drained: the subset no longer holds decode resources.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.in_flight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.in_flight(), 0u);
  EXPECT_EQ(decoder.files_decoded(), 5u);
  EXPECT_GT(decoder.max_buffered_records(), 0u);
  EXPECT_LE(decoder.max_buffered_records(), 5u);  // 1-slot buffer per file
}

TEST(PrefetchDecoderTest, ChunkedInFlightCountsActiveSubsets) {
  PrefetchDecoder::Options opt = FreshRuntime(2, 64);
  auto gov = opt.governor;
  opt.max_records_in_flight = 8;
  PrefetchDecoder decoder(std::move(opt));
  SubmitWithFloors(decoder, *gov, BogusSubset("x", 2));
  SubmitWithFloors(decoder, *gov, BogusSubset("y", 2));
  EXPECT_EQ(decoder.in_flight(), 2u);

  auto sources = decoder.NextSources();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(decoder.outstanding(), 1u);
  // Handed out but not yet drained: still holds decode resources.
  EXPECT_EQ(decoder.in_flight(), 2u);
  for (auto& s : sources) {
    while (s->Next()) {
    }
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.in_flight() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.in_flight(), 1u);  // only the queued subset remains
}

TEST(PrefetchDecoderTest, SharedExecutorDecodersKeepFifoOrder) {
  // Two decoders as tenants of one executor: each still returns its own
  // subsets in its own Submit order.
  PrefetchDecoder::Options opt_a = FreshRuntime(2, 64);
  PrefetchDecoder::Options opt_b = opt_a;
  auto executor = opt_a.executor;
  auto gov = opt_a.governor;
  PrefetchDecoder a(std::move(opt_a));
  PrefetchDecoder b(std::move(opt_b));
  SubmitWithFloors(a, *gov, BogusSubset("a1", 3));
  SubmitWithFloors(b, *gov, BogusSubset("b1", 2));
  SubmitWithFloors(a, *gov, BogusSubset("a2", 1));
  EXPECT_EQ(a.NextSources()[0]->meta().collector, "a1-0");
  EXPECT_EQ(b.NextSources()[0]->meta().collector, "b1-0");
  EXPECT_EQ(a.NextSources()[0]->meta().collector, "a2-0");
  EXPECT_EQ(executor->tenants(), 2u);
}

TEST(PrefetchDecoderTest, ChunkedGovernorLedgerBalancesOnDrain) {
  PrefetchDecoder::Options opt = FreshRuntime(2, 8);
  auto governor = opt.governor;
  PrefetchDecoder decoder(std::move(opt));

  SubmitWithFloors(decoder, *governor, BogusSubset("gov", 3));
  auto sources = decoder.NextSources();
  ASSERT_EQ(sources.size(), 3u);
  for (auto& s : sources) {
    while (s->Next()) {
    }
  }
  // Fully decoded and drained: every slot (floors + extras) returns to
  // the global budget.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (governor->in_use() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(governor->in_use(), 0u);
  EXPECT_GT(governor->max_in_use(), 0u);
  EXPECT_LE(governor->max_in_use(), 8u);
}

TEST(PrefetchDecoderTest, ChunkedGovernorLedgerBalancesOnDestruction) {
  PrefetchDecoder::Options opt = FreshRuntime(2, 8);
  auto governor = opt.governor;
  {
    PrefetchDecoder decoder(std::move(opt));
    SubmitWithFloors(decoder, *governor, BogusSubset("dropped", 4));
    // Destroyed with the subset undrained (possibly still filling).
  }
  EXPECT_EQ(governor->in_use(), 0u);
}

TEST(PrefetchDecoderTest, ChunkedSourcesSurviveDecoderDestruction) {
  std::vector<std::unique_ptr<RecordSource>> sources;
  {
    PrefetchDecoder::Options opt = FreshRuntime(2, 8);
    auto gov = opt.governor;
    PrefetchDecoder decoder(std::move(opt));
    SubmitWithFloors(decoder, *gov, BogusSubset("gone", 3));
    sources = decoder.NextSources();
    // Give workers a chance to buffer; either way the sources must not
    // hang after the decoder (and its workers) are gone.
  }
  for (auto& s : sources) {
    while (auto rec = s->Next()) {
      EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    }
  }
}

class PrefetchStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
  }

  // Runs a full historical stream and fingerprints every record.
  struct RunResult {
    std::vector<std::tuple<Timestamp, std::string, int, int, int>> records;
    size_t subsets = 0;
    size_t max_open = 0;
    size_t elems = 0;
  };
  RunResult Run(BgpStream::Options options) {
    broker::Broker::Options bopt;
    bopt.clock = [] { return Timestamp(4102444800); };
    broker::Broker broker(root_, bopt);
    BrokerDataInterface di(&broker);
    BgpStream stream(std::move(options));
    stream.SetInterval(start_, end_);
    stream.SetDataInterface(&di);
    EXPECT_TRUE(stream.Start().ok());
    RunResult out;
    while (auto rec = stream.NextRecord()) {
      out.records.emplace_back(rec->timestamp, rec->collector,
                               int(rec->dump_type), int(rec->status),
                               int(rec->position));
      out.elems += stream.Elems(*rec).size();
    }
    out.subsets = stream.subsets_merged();
    out.max_open = stream.max_open_files();
    return out;
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
};

TEST_F(PrefetchStreamTest, PrefetchedStreamMatchesSynchronousStream) {
  RunResult sync = Run({});

  BgpStream::Options prefetch;
  prefetch.prefetch_subsets = 3;
  prefetch.executor =
      std::make_shared<Executor>(Executor::Options{.threads = 2});
  prefetch.governor = std::make_shared<MemoryGovernor>(4096);
  std::atomic<size_t> opens{0};
  prefetch.file_open_hook = [&](const DumpFileMeta&) { ++opens; };
  RunResult async = Run(std::move(prefetch));

  ASSERT_GT(sync.records.size(), 100u);
  EXPECT_EQ(async.records, sync.records);
  EXPECT_EQ(async.subsets, sync.subsets);
  EXPECT_EQ(async.max_open, sync.max_open);
  EXPECT_EQ(async.elems, sync.elems);
  EXPECT_GT(opens.load(), 0u);
}

TEST_F(PrefetchStreamTest, LiveModeWithPrefetchTerminatesOnPollCap) {
  Timestamp now = start_ + 301;
  broker::Broker::Options bopt;
  bopt.clock = [&now] { return now; };
  broker::Broker broker(root_, bopt);
  BrokerDataInterface di(&broker);

  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
  opt.governor = std::make_shared<MemoryGovernor>(4096);
  opt.poll_wait = [&] { now += 300; };
  opt.max_consecutive_polls = 500;
  BgpStream stream(std::move(opt));
  stream.SetLive(start_);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  size_t records = 0;
  while (auto rec = stream.NextRecord()) ++records;
  EXPECT_GT(records, 100u);  // the whole archive eventually streams
}

// A data interface that never has data: live mode must give up after
// exactly max_consecutive_polls empty polls (Options safety valve).
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

TEST(BgpStreamLiveTest, MaxConsecutivePollsStopsAnEmptyLiveStream) {
  NeverReadyInterface di;
  BgpStream::Options opt;
  size_t polls = 0;
  opt.poll_wait = [&polls] { ++polls; };
  opt.max_consecutive_polls = 7;
  BgpStream stream(std::move(opt));
  stream.SetLive(0);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  EXPECT_EQ(stream.NextRecord(), std::nullopt);
  // The cap counts empty polls; the final poll is cut short before its
  // wait, so exactly cap-1 waits (and refreshes) happen.
  EXPECT_EQ(polls, 6u);
  EXPECT_EQ(di.refreshes, 6u);
  // The stream stays terminated afterwards.
  EXPECT_EQ(stream.NextRecord(), std::nullopt);
  EXPECT_EQ(polls, 6u);
}

}  // namespace
}  // namespace bgps::core
