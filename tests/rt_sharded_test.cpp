// Sharded RoutingTables must be observably identical to the sequential
// path at any shard count: the diff stream, snapshots, bin stats,
// accuracy counters, VP set, FSM states and reconstructed tables. These
// tests pin that equivalence over the simulated archive, a generated
// mixed-scenario corpus, and hand-built corrupt-record sequences, plus
// the per-collector VP index regression (RIB boundary events must visit
// only their own collector's VPs). The RtGolden tests pin the output
// itself to recorded digests.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "broker/broker.hpp"
#include "core/executor.hpp"
#include "core/stream.hpp"
#include "corsaro/corsaro.hpp"
#include "corsaro/rt.hpp"
#include "sim/corpus.hpp"
#include "tests/rt_digest.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::corsaro {
namespace {

namespace fs = std::filesystem;

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

// Everything a consumer can observe from a RoutingTables run.
struct Fingerprint {
  std::vector<std::pair<Timestamp, std::vector<DiffCell>>> diff_events;
  std::vector<std::tuple<Timestamp, VpKey, std::map<Prefix, RtCell>>>
      snapshots;
  std::vector<RtBinStats> bins;
  size_t rib_compared = 0;
  size_t rib_mismatches = 0;
  std::vector<VpKey> vps;
  std::map<VpKey, VpState> states;
  std::map<VpKey, std::map<Prefix, RtCell>> tables;

  bool operator==(const Fingerprint&) const = default;
};

void AttachObservers(RoutingTables& rt, Fingerprint& fp) {
  rt.set_diff_callback(
      [&fp](Timestamp bin_start, const std::vector<DiffCell>& diffs) {
        fp.diff_events.emplace_back(bin_start, diffs);
      });
  rt.set_snapshot_callback([&fp](Timestamp bin_start, const VpKey& vp,
                                 const std::map<Prefix, RtCell>& table) {
    fp.snapshots.emplace_back(bin_start, vp, table);
  });
}

void Finalize(RoutingTables& rt, Fingerprint& fp) {
  fp.bins = rt.bin_stats();
  fp.rib_compared = rt.rib_compared_prefixes();
  fp.rib_mismatches = rt.rib_mismatches();
  fp.vps = rt.vps();
  for (const auto& vp : fp.vps) {
    fp.states[vp] = rt.state(vp);
    fp.tables[vp] = rt.table(vp);
  }
}

// Field-by-field comparison so a divergence names the observable that
// broke instead of "fingerprints differ".
void ExpectSameFingerprint(const Fingerprint& seq, const Fingerprint& got,
                           const std::string& label) {
  EXPECT_EQ(seq.diff_events == got.diff_events, true)
      << label << ": diff stream diverged";
  EXPECT_EQ(seq.snapshots == got.snapshots, true)
      << label << ": snapshot stream diverged";
  EXPECT_EQ(seq.bins == got.bins, true) << label << ": bin stats diverged";
  EXPECT_EQ(seq.rib_compared, got.rib_compared) << label;
  EXPECT_EQ(seq.rib_mismatches, got.rib_mismatches) << label;
  EXPECT_EQ(seq.vps == got.vps, true) << label << ": VP sets diverged";
  EXPECT_EQ(seq.states == got.states, true) << label << ": states diverged";
  EXPECT_EQ(seq.tables == got.tables, true) << label << ": tables diverged";
  EXPECT_EQ(seq == got, true) << label;
}

// Runs the RT plugin over an on-disk archive and captures its fingerprint.
Fingerprint RunOverArchive(const std::string& root, Timestamp start,
                           Timestamp end, RoutingTables::Options options,
                           size_t* applied_elems_sum = nullptr,
                           std::vector<RtShardStats>* shard_stats = nullptr) {
  broker::Broker::Options bopt;
  bopt.clock = [] { return Timestamp(4102444800); };
  broker::Broker broker(root, bopt);
  core::BrokerDataInterface di(&broker);

  core::BgpStream stream;
  stream.SetInterval(start, end);
  stream.SetDataInterface(&di);
  EXPECT_TRUE(stream.Start().ok());

  BgpCorsaro engine(&stream, 300);
  auto rt = std::make_unique<RoutingTables>(options);
  RoutingTables* rtp = rt.get();
  Fingerprint fp;
  AttachObservers(*rtp, fp);
  engine.AddPlugin(std::move(rt));
  engine.Run();
  Finalize(*rtp, fp);
  if (applied_elems_sum || shard_stats) {
    auto stats = rtp->shard_stats();
    if (shard_stats) *shard_stats = stats;
    if (applied_elems_sum) {
      *applied_elems_sum = 0;
      for (const auto& s : stats) *applied_elems_sum += s.applied_elems;
    }
  }
  return fp;
}

TEST(RtSharded, FixtureArchiveFingerprintIsShardCountInvariant) {
  const auto& a = testutil::GetSmallArchive();
  core::Executor executor({.threads = 3});

  RoutingTables::Options seq_opt;
  seq_opt.snapshot_every_bins = 2;
  size_t seq_applied = 0;
  Fingerprint seq =
      RunOverArchive(a.root, a.start, a.end, seq_opt, &seq_applied);
  ASSERT_FALSE(seq.vps.empty());
  ASSERT_FALSE(seq.diff_events.empty());
  ASSERT_FALSE(seq.snapshots.empty());
  EXPECT_GT(seq_applied, 0u);

  for (size_t shards : {size_t(1), size_t(2), size_t(3), size_t(8)}) {
    RoutingTables::Options opt;
    opt.snapshot_every_bins = 2;
    opt.shards = shards;
    opt.executor = &executor;
    opt.batch_elems = 64;  // small batches: exercise the flush path hard
    size_t applied = 0;
    std::vector<RtShardStats> stats;
    Fingerprint got =
        RunOverArchive(a.root, a.start, a.end, opt, &applied, &stats);
    ExpectSameFingerprint(seq, got, "shards=" + std::to_string(shards));
    // Work conservation: the same elems were applied, just elsewhere.
    EXPECT_EQ(applied, seq_applied) << "shards=" << shards;
    ASSERT_EQ(stats.size(), shards);
    size_t vps_total = 0;
    for (const auto& s : stats) vps_total += s.vps;
    EXPECT_EQ(vps_total, seq.vps.size());
    if (shards >= 2) {
      // 10 VPs over 2+ shards: the FNV split must actually spread them.
      size_t populated = 0;
      for (const auto& s : stats) populated += (s.vps > 0);
      EXPECT_GE(populated, 2u) << "shards=" << shards;
    }
  }
}

TEST(RtSharded, MixedScenarioCorpusFingerprintMatches) {
  // A nastier stream than the fixture: hijacks, leaks, session resets
  // and blackholes over shared churn, two collectors.
  std::string root = (fs::temp_directory_path() /
                      ("bgps_rt_sharded_mixed_" + std::to_string(::getpid())))
                         .string();
  sim::CorpusOptions copt;
  copt.scenario = "mixed";
  copt.duration = 3600;
  copt.flaps_per_hour = 1200;
  copt.seed = 21;
  auto stats = sim::GenerateCorpus(copt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  RoutingTables::Options seq_opt;
  seq_opt.snapshot_every_bins = 3;
  Fingerprint seq = RunOverArchive(root, stats->start, stats->end, seq_opt);
  ASSERT_FALSE(seq.diff_events.empty());

  core::Executor executor({.threads = 3});
  for (size_t shards : {size_t(2), size_t(5)}) {
    RoutingTables::Options opt;
    opt.snapshot_every_bins = 3;
    opt.shards = shards;
    opt.executor = &executor;
    opt.batch_elems = 128;
    Fingerprint got = RunOverArchive(root, stats->start, stats->end, opt);
    ExpectSameFingerprint(seq, got,
                          "mixed corpus shards=" + std::to_string(shards));
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(RtSharded, SyntheticRibCorpusExercisesCompareAndMatches) {
  // A scaled-down cut of the million-prefix synthetic archive: initial
  // RIB, churn windows, and a final RIB — so the §6.2.1 compare/merge
  // path runs (rib_compared > 0) and must agree at every shard count.
  std::string root =
      (fs::temp_directory_path() /
       ("bgps_rt_sharded_synth_" + std::to_string(::getpid())))
          .string();
  sim::SyntheticRibOptions sopt;
  sopt.prefixes = 5000;
  sopt.vps = 5;
  sopt.update_windows = 2;
  sopt.churn_fraction = 0.05;
  sopt.final_rib = true;
  sopt.seed = 3;
  auto stats = sim::GenerateSyntheticRib(sopt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GT(stats->rib_entries, sopt.prefixes);  // initial + final dumps
  ASSERT_GT(stats->update_messages, 0u);

  RoutingTables::Options seq_opt;
  Fingerprint seq = RunOverArchive(root, stats->start, stats->end, seq_opt);
  ASSERT_EQ(seq.vps.size(), size_t(sopt.vps));
  ASSERT_GT(seq.rib_compared, 0u);
  EXPECT_EQ(seq.rib_mismatches, 0u);  // nothing corrupt in this corpus

  core::Executor executor({.threads = 3});
  for (size_t shards : {size_t(2), size_t(4)}) {
    RoutingTables::Options opt;
    opt.shards = shards;
    opt.executor = &executor;
    Fingerprint got = RunOverArchive(root, stats->start, stats->end, opt);
    ExpectSameFingerprint(seq, got,
                          "synthetic shards=" + std::to_string(shards));
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

// --- direct-feed equivalence: corrupt records and FSM events ---

struct Feeder {
  explicit Feeder(RoutingTables& rt) : rt(&rt) {}
  void Updates(const std::string& collector, Timestamp t,
               const std::vector<core::Elem>& elems) {
    core::Record rec;
    rec.project = "ris";
    rec.collector = collector;
    rec.dump_type = core::DumpType::Updates;
    rec.timestamp = t;
    RecordContext ctx{rec, elems, {}};
    rt->OnRecord(ctx);
  }
  void CorruptUpdates(const std::string& collector) {
    core::Record rec;
    rec.collector = collector;
    rec.dump_type = core::DumpType::Updates;
    rec.status = core::RecordStatus::CorruptedRecord;
    std::vector<core::Elem> none;
    RecordContext ctx{rec, none, {}};
    rt->OnRecord(ctx);
  }
  void Rib(const std::string& collector, Timestamp t,
           core::DumpPosition position, const std::vector<core::Elem>& elems,
           core::RecordStatus status = core::RecordStatus::Valid) {
    core::Record rec;
    rec.collector = collector;
    rec.dump_type = core::DumpType::Rib;
    rec.timestamp = t;
    rec.position = position;
    rec.status = status;
    RecordContext ctx{rec, elems, {}};
    rt->OnRecord(ctx);
  }
  RoutingTables* rt;
};

core::Elem Ann(Timestamp t, bgp::Asn peer, const Prefix& p,
               std::initializer_list<bgp::Asn> path) {
  core::Elem e;
  e.type = core::ElemType::Announcement;
  e.time = t;
  e.peer_asn = peer;
  e.prefix = p;
  e.as_path = bgp::AsPath::Sequence(path);
  return e;
}

core::Elem Wd(Timestamp t, bgp::Asn peer, const Prefix& p) {
  core::Elem e;
  e.type = core::ElemType::Withdrawal;
  e.time = t;
  e.peer_asn = peer;
  e.prefix = p;
  return e;
}

core::Elem RibE(Timestamp t, bgp::Asn peer, const Prefix& p,
                std::initializer_list<bgp::Asn> path) {
  core::Elem e;
  e.type = core::ElemType::RibEntry;
  e.time = t;
  e.peer_asn = peer;
  e.prefix = p;
  e.as_path = bgp::AsPath::Sequence(path);
  return e;
}

// Drives one scripted sequence exercising E1 (corrupt RIB), E2 (stale
// RIB record), E3 (corrupt updates) and plain churn over three
// collectors, with bin boundaries interleaved.
Fingerprint RunScripted(RoutingTables::Options options) {
  RoutingTables rt(options);
  Fingerprint fp;
  AttachObservers(rt, fp);
  Feeder f(rt);

  const std::vector<std::string> collectors = {"rrc00", "rrc01", "rv2"};
  // Seed 6 VPs per collector with announcements.
  for (size_t c = 0; c < collectors.size(); ++c) {
    for (bgp::Asn peer = 65000; peer < 65006; ++peer) {
      for (int i = 0; i < 4; ++i) {
        auto p = P(std::to_string(10 + i) + "." + std::to_string(c) + "." +
                   std::to_string(peer - 65000) + ".0/24");
        f.Updates(collectors[c], 100 + i,
                  {Ann(100 + i, peer, p, {peer, 4200000000u + i})});
      }
    }
  }
  rt.OnBinEnd(0, 300);

  // A clean RIB on rrc00; a corrupt RIB mid-dump on rrc01 (E1); corrupt
  // updates on rv2 (E3).
  f.Rib("rrc00", 400, core::DumpPosition::Start,
        {RibE(400, 65000, P("10.0.0.0/24"), {65000, 4200000000u}),
         RibE(400, 65001, P("10.0.1.0/24"), {65001, 99})});
  f.Rib("rrc00", 401, core::DumpPosition::End, {});
  f.Rib("rrc01", 400, core::DumpPosition::Start,
        {RibE(400, 65002, P("10.1.2.0/24"), {65002, 7})});
  f.Rib("rrc01", 401, core::DumpPosition::Middle, {},
        core::RecordStatus::CorruptedRecord);
  f.CorruptUpdates("rv2");
  rt.OnBinEnd(300, 600);

  // Churn after the events: withdrawals, re-announcements, an E2-style
  // stale RIB record (timestamp below the update's last_modified).
  f.Updates("rrc00", 700, {Wd(700, 65000, P("10.0.0.0/24"))});
  f.Updates("rrc00", 701,
            {Ann(701, 65001, P("10.0.1.0/24"), {65001, 100})});
  f.Rib("rrc00", 650, core::DumpPosition::Start,
        {RibE(650, 65001, P("10.0.1.0/24"), {65001, 99})});
  f.Rib("rrc00", 651, core::DumpPosition::End, {});
  f.Updates("rv2", 710, {Ann(710, 65003, P("12.2.3.0/24"), {65003, 42})});
  rt.OnBinEnd(600, 900);
  rt.OnFinish();

  Finalize(rt, fp);
  return fp;
}

TEST(RtSharded, CorruptRecordEventsMatchSequentialExactly) {
  Fingerprint seq = RunScripted({});
  ASSERT_FALSE(seq.vps.empty());
  ASSERT_EQ(seq.diff_events.size(), 3u);

  core::Executor executor({.threads = 3});
  for (size_t shards : {size_t(2), size_t(4), size_t(7)}) {
    RoutingTables::Options opt;
    opt.shards = shards;
    opt.executor = &executor;
    opt.batch_elems = 3;  // force frequent flushes around broadcasts
    Fingerprint got = RunScripted(opt);
    ExpectSameFingerprint(seq, got,
                          "scripted shards=" + std::to_string(shards));
  }
}

// --- satellite 1 regression: per-collector VP index ---
// A RIB boundary or corrupt-updates event on one collector must visit
// only that collector's VPs, however many other collectors exist.

TEST(RtSharded, RibBoundaryEventsVisitOnlyTheOwnCollectorsVps) {
  for (size_t shards : {size_t(1), size_t(4)}) {
    core::Executor executor({.threads = 2});
    RoutingTables::Options opt;
    if (shards > 1) {
      opt.shards = shards;
      opt.executor = &executor;
      opt.batch_elems = 1;
    }
    RoutingTables rt(opt);
    Feeder f(rt);

    // 20 collectors x 3 VPs each = 60 VPs total.
    constexpr int kCollectors = 20;
    constexpr int kVpsPer = 3;
    for (int c = 0; c < kCollectors; ++c) {
      std::string name = "coll" + std::to_string(c);
      for (int v = 0; v < kVpsPer; ++v) {
        bgp::Asn peer = 65000 + v;
        f.Updates(name, 100,
                  {Ann(100, peer, P("10.0." + std::to_string(v) + ".0/24"),
                       {peer, 1})});
      }
    }
    ASSERT_EQ(rt.vps().size(), size_t(kCollectors) * kVpsPer);
    size_t before = rt.rib_boundary_visits();

    // One collector's RIB start+end: 2 events x 3 VPs, not x 60.
    f.Rib("coll7", 200, core::DumpPosition::Start,
          {RibE(200, 65000, P("10.0.0.0/24"), {65000, 1})});
    f.Rib("coll7", 201, core::DumpPosition::End, {});
    size_t after_rib = rt.rib_boundary_visits();
    EXPECT_EQ(after_rib - before, size_t(2 * kVpsPer)) << "shards=" << shards;

    // A corrupt-updates event on another collector: 1 event x 3 VPs.
    f.CorruptUpdates("coll12");
    EXPECT_EQ(rt.rib_boundary_visits() - after_rib, size_t(kVpsPer))
        << "shards=" << shards;

    // An aborted RIB (E1) is also per-collector.
    f.Rib("coll3", 300, core::DumpPosition::Start, {});
    size_t before_abort = rt.rib_boundary_visits();
    f.Rib("coll3", 301, core::DumpPosition::Middle, {},
          core::RecordStatus::CorruptedRecord);
    EXPECT_EQ(rt.rib_boundary_visits() - before_abort, size_t(kVpsPer))
        << "shards=" << shards;
  }
}

// --- golden pins: the output itself, not only shard-count invariance ---
// Every test above compares the sharded path with the sequential path of
// the same build, so a change that alters both the same way would pass
// them all. These pins hold the FNV-1a digest of the whole fingerprint
// (diff events, snapshots, bin stats, accuracy counters, VP set, FSM
// states and tables), plus a few of its totals so a failure says what
// moved, to constants recorded from the map-based implementation. The
// corpora draw from libstdc++'s std:: distributions, so the constants
// hold for that standard library.

uint64_t DigestOf(const Fingerprint& fp) {
  testutil::RtDigest d;
  d.Mix(fp.diff_events.size());
  for (const auto& [bin_start, diffs] : fp.diff_events) {
    d.Mix(uint64_t(bin_start));
    d.Mix(diffs.size());
    for (const auto& cell : diffs) d.MixCell(cell);
  }
  d.Mix(fp.snapshots.size());
  for (const auto& [bin_start, vp, table] : fp.snapshots) {
    d.Mix(uint64_t(bin_start));
    d.Mix(table.size());
    for (const auto& [prefix, cell] : table)
      d.MixCell(DiffCell{vp, prefix, cell});
  }
  d.Mix(fp.bins.size());
  for (const auto& bin : fp.bins) {
    d.Mix(uint64_t(bin.bin_start));
    d.Mix(bin.elems);
    d.Mix(bin.diff_cells);
  }
  d.Mix(fp.rib_compared);
  d.Mix(fp.rib_mismatches);
  d.Mix(fp.vps.size());
  for (const auto& vp : fp.vps) {
    d.MixStr(vp.collector);
    d.Mix(vp.peer);
    d.Mix(uint64_t(fp.states.at(vp)));
    const auto& table = fp.tables.at(vp);
    d.Mix(table.size());
    for (const auto& [prefix, cell] : table)
      d.MixCell(DiffCell{vp, prefix, cell});
  }
  return d.hash;
}

struct Golden {
  uint64_t digest;
  size_t diff_cells;
  size_t rib_compared;
  size_t rib_mismatches;
};

void ExpectGolden(const Fingerprint& fp, const Golden& want,
                  const std::string& label) {
  size_t diff_cells = 0;
  for (const auto& event : fp.diff_events) diff_cells += event.second.size();
  EXPECT_EQ(diff_cells, want.diff_cells) << label;
  EXPECT_EQ(fp.rib_compared, want.rib_compared) << label;
  EXPECT_EQ(fp.rib_mismatches, want.rib_mismatches) << label;
  EXPECT_EQ(DigestOf(fp), want.digest)
      << label << ": digest 0x" << std::hex << DigestOf(fp);
}

// Runs `run` at shards 1 (inline) and 3 (on a 3-worker executor) and
// checks both against the same pin.
template <typename Run>
void ExpectGoldenAtShards1And3(Run run, RoutingTables::Options options,
                               const Golden& want, const std::string& label) {
  core::Executor executor({.threads = 3});
  for (size_t shards : {size_t(1), size_t(3)}) {
    RoutingTables::Options opt = options;
    opt.shards = shards;
    opt.executor = shards > 1 ? &executor : nullptr;
    ExpectGolden(run(opt), want, label + " shards=" + std::to_string(shards));
  }
}

TEST(RtGolden, FixtureArchive) {
  const auto& a = testutil::GetSmallArchive();
  RoutingTables::Options opt;
  opt.snapshot_every_bins = 2;
  ExpectGoldenAtShards1And3(
      [&](RoutingTables::Options o) {
        return RunOverArchive(a.root, a.start, a.end, o);
      },
      opt, Golden{0x693ffbcb46244c91ull, 1497, 0, 0}, "fixture");
}

TEST(RtGolden, MixedScenarioCorpus) {
  std::string root = (fs::temp_directory_path() /
                      ("bgps_rt_golden_mixed_" + std::to_string(::getpid())))
                         .string();
  sim::CorpusOptions copt;
  copt.scenario = "mixed";
  copt.duration = 3600;
  copt.flaps_per_hour = 1200;
  copt.seed = 21;
  auto stats = sim::GenerateCorpus(copt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  RoutingTables::Options opt;
  opt.snapshot_every_bins = 3;
  ExpectGoldenAtShards1And3(
      [&](RoutingTables::Options o) {
        return RunOverArchive(root, stats->start, stats->end, o);
      },
      opt, Golden{0x65c50ca1f2fd0235ull, 6296, 0, 0}, "mixed");
  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(RtGolden, SyntheticRibCorpus) {
  std::string root = (fs::temp_directory_path() /
                      ("bgps_rt_golden_synth_" + std::to_string(::getpid())))
                         .string();
  sim::SyntheticRibOptions sopt;
  sopt.prefixes = 2000;
  sopt.vps = 16;
  sopt.update_windows = 4;
  sopt.churn_fraction = 0.05;
  sopt.final_rib = true;
  sopt.seed = 7;
  auto stats = sim::GenerateSyntheticRib(sopt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  RoutingTables::Options opt;
  opt.snapshot_every_bins = 2;
  ExpectGoldenAtShards1And3(
      [&](RoutingTables::Options o) {
        return RunOverArchive(root, stats->start, stats->end, o);
      },
      opt, Golden{0x8a39ac20abf0afebull, 9892, 9421, 0}, "synthetic");
  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(RtGolden, ScriptedCorruptRecords) {
  ExpectGoldenAtShards1And3(
      RunScripted, {}, Golden{0xf09dba5fbe92a466ull, 98, 3, 1}, "scripted");
}

TEST(RtSharded, ShardsWithoutExecutorApplyInline) {
  // shards > 1 but no executor: documented to fall back to inline apply
  // and still produce sequential output.
  Fingerprint seq = RunScripted({});
  RoutingTables::Options opt;
  opt.shards = 4;
  opt.executor = nullptr;
  Fingerprint got = RunScripted(opt);
  ExpectSameFingerprint(seq, got, "shards=4 executor=null");
}

}  // namespace
}  // namespace bgps::corsaro
