#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "corsaro/corsaro.hpp"
#include "corsaro/pfxmonitor.hpp"
#include "corsaro/rt.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::corsaro {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

// --- FSM transition table (Figure 8), exhaustively ---

struct FsmCase {
  VpState from;
  VpInput input;
  VpState to;
};

class RtFsm : public ::testing::TestWithParam<FsmCase> {};

TEST_P(RtFsm, Transition) {
  const auto& c = GetParam();
  EXPECT_EQ(VpNextState(c.from, c.input), c.to)
      << VpStateName(c.from) << " + input " << int(c.input);
}

INSTANTIATE_TEST_SUITE_P(
    Figure8, RtFsm,
    ::testing::Values(
        // (1) down --RIB start--> (2) down-rib-application
        FsmCase{VpState::Down, VpInput::RibStart, VpState::DownRibApplication},
        // (2) --RIB end--> (3) up
        FsmCase{VpState::DownRibApplication, VpInput::RibEnd, VpState::Up},
        // (3) --RIB start--> (4) up-rib-application
        FsmCase{VpState::Up, VpInput::RibStart, VpState::UpRibApplication},
        // (4) --RIB end--> (3)
        FsmCase{VpState::UpRibApplication, VpInput::RibEnd, VpState::Up},
        // E1: corrupted RIB dump falls back to the pre-dump macro state.
        FsmCase{VpState::DownRibApplication, VpInput::RibCorrupt,
                VpState::Down},
        FsmCase{VpState::UpRibApplication, VpInput::RibCorrupt, VpState::Up},
        // E3: corrupted updates record forces down from anywhere.
        FsmCase{VpState::Up, VpInput::UpdateCorrupt, VpState::Down},
        FsmCase{VpState::UpRibApplication, VpInput::UpdateCorrupt,
                VpState::Down},
        FsmCase{VpState::DownRibApplication, VpInput::UpdateCorrupt,
                VpState::Down},
        // E4: Established state message.
        FsmCase{VpState::Down, VpInput::StateEstablished, VpState::Up},
        FsmCase{VpState::Up, VpInput::StateEstablished, VpState::Up},
        // E4: non-Established.
        FsmCase{VpState::Up, VpInput::StateDown, VpState::Down},
        FsmCase{VpState::UpRibApplication, VpInput::StateDown, VpState::Down},
        // Ordinary updates never change state.
        FsmCase{VpState::Down, VpInput::Update, VpState::Down},
        FsmCase{VpState::Up, VpInput::Update, VpState::Up}));

TEST(RtFsmHelpers, MacroStates) {
  EXPECT_TRUE(VpTableConsistent(VpState::Up));
  EXPECT_TRUE(VpTableConsistent(VpState::UpRibApplication));
  EXPECT_FALSE(VpTableConsistent(VpState::Down));
  EXPECT_FALSE(VpTableConsistent(VpState::DownRibApplication));
}

// --- engine + plugins over the simulated archive ---

class CorsaroTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
    broker::Broker::Options opt;
    opt.clock = [] { return Timestamp(4102444800); };
    broker_ = std::make_unique<broker::Broker>(root_, opt);
    di_ = std::make_unique<core::BrokerDataInterface>(broker_.get());
  }

  std::unique_ptr<core::BgpStream> MakeStream(
      const std::string& collector = "") {
    auto stream = std::make_unique<core::BgpStream>();
    if (!collector.empty()) {
      EXPECT_TRUE(stream->AddFilter("collector", collector).ok());
    }
    stream->SetInterval(start_, end_);
    stream->SetDataInterface(di_.get());
    EXPECT_TRUE(stream->Start().ok());
    return stream;
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
  std::unique_ptr<broker::Broker> broker_;
  std::unique_ptr<core::BrokerDataInterface> di_;
};

class CountingPlugin : public Plugin {
 public:
  std::string_view name() const override { return "counting"; }
  void OnRecord(RecordContext& ctx) override {
    ++records;
    elems += ctx.elems.size();
    if (!ctx.record.collector.empty()) ctx.tags.insert("seen");
  }
  void OnBinStart(Timestamp t) override { bin_starts.push_back(t); }
  void OnBinEnd(Timestamp t, Timestamp) override { bin_ends.push_back(t); }
  void OnFinish() override { finished = true; }

  size_t records = 0;
  size_t elems = 0;
  std::vector<Timestamp> bin_starts, bin_ends;
  bool finished = false;
};

class TagReaderPlugin : public Plugin {
 public:
  std::string_view name() const override { return "tag-reader"; }
  void OnRecord(RecordContext& ctx) override {
    if (ctx.tags.count("seen")) ++tagged;
  }
  size_t tagged = 0;
};

TEST_F(CorsaroTest, BinsAreAlignedAndContiguous) {
  auto stream = MakeStream();
  BgpCorsaro engine(stream.get(), 300);
  auto counting = std::make_unique<CountingPlugin>();
  CountingPlugin* cp = counting.get();
  engine.AddPlugin(std::move(counting));
  size_t n = engine.Run();
  EXPECT_GT(n, 0u);
  EXPECT_TRUE(cp->finished);
  ASSERT_FALSE(cp->bin_ends.empty());
  for (Timestamp t : cp->bin_ends) EXPECT_EQ(t % 300, 0);
  for (size_t i = 1; i < cp->bin_ends.size(); ++i) {
    EXPECT_EQ(cp->bin_ends[i], cp->bin_ends[i - 1] + 300);
  }
  // Final bin end fired exactly once per bin start.
  EXPECT_EQ(cp->bin_starts.size(), cp->bin_ends.size());
}

// A bin size of 0 would divide by zero in AlignToBin and a negative one
// would never leave AdvanceBinsTo's loop, so the engine refuses both.
TEST_F(CorsaroTest, NonPositiveBinSizeIsRejectedWithoutRunning) {
  auto stream = MakeStream();
  for (Timestamp bin : {Timestamp(0), Timestamp(-900)}) {
    BgpCorsaro engine(stream.get(), bin);
    auto counting = std::make_unique<CountingPlugin>();
    CountingPlugin* cp = counting.get();
    engine.AddPlugin(std::move(counting));
    EXPECT_EQ(engine.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(engine.status().message(),
              "BgpCorsaro: bin size must be >= 1 second, got " +
                  std::to_string(bin));
    EXPECT_FALSE(engine.Step(10));
    EXPECT_EQ(engine.Run(), 0u);
    EXPECT_EQ(engine.records_processed(), 0u);
    EXPECT_EQ(cp->records, 0u);
    EXPECT_TRUE(cp->bin_starts.empty());
    EXPECT_TRUE(cp->bin_ends.empty());
    EXPECT_FALSE(cp->finished);
  }
  // Neither engine read the stream: its first record is still there.
  EXPECT_TRUE(stream->NextRecord().has_value());
}

TEST_F(CorsaroTest, PipelineTagsFlowDownstream) {
  auto stream = MakeStream();
  BgpCorsaro engine(stream.get(), 300);
  auto counting = std::make_unique<CountingPlugin>();
  auto reader = std::make_unique<TagReaderPlugin>();
  CountingPlugin* cp = counting.get();
  TagReaderPlugin* tp = reader.get();
  engine.AddPlugin(std::move(counting));  // upstream tagger
  engine.AddPlugin(std::move(reader));    // downstream consumer
  engine.Run();
  EXPECT_EQ(tp->tagged, cp->records);
}

TEST_F(CorsaroTest, PfxMonitorTracksMonitoredSpace) {
  // Monitor one origin's address space end-to-end.
  const auto& topo = testutil::GetSmallArchive().driver->topology();
  bgp::Asn victim = 0;
  std::vector<Prefix> ranges;
  for (const auto& [asn, node] : topo.nodes()) {
    if (node.tier == sim::AsTier::Stub && node.prefixes.size() >= 2) {
      victim = asn;
      ranges = node.prefixes;
      break;
    }
  }
  ASSERT_NE(victim, 0u);

  auto stream = MakeStream();
  BgpCorsaro engine(stream.get(), 300);
  auto monitor = std::make_unique<PfxMonitor>(ranges);
  PfxMonitor* pm = monitor.get();
  engine.AddPlugin(std::move(monitor));
  engine.Run();

  ASSERT_FALSE(pm->rows().empty());
  // After the RIB dumps are ingested, the monitored prefixes are visible
  // with exactly one origin.
  const auto& last = pm->rows().back();
  EXPECT_GE(last.unique_prefixes, ranges.size() - 1);  // flaps may hide one
  EXPECT_EQ(last.unique_origins, 1u);
  EXPECT_EQ(pm->origins(ranges.front()), std::set<bgp::Asn>{victim});
}

TEST_F(CorsaroTest, RoutingTablesReconstructsVpTables) {
  auto stream = MakeStream("rrc00");
  BgpCorsaro engine(stream.get(), 300);
  auto rt = std::make_unique<RoutingTables>();
  RoutingTables* rtp = rt.get();
  engine.AddPlugin(std::move(rt));
  engine.Run();

  auto vps = rtp->vps();
  ASSERT_FALSE(vps.empty());
  // All VPs should have consistent tables after the RIB was applied.
  size_t consistent = 0;
  for (const auto& vp : vps) {
    if (VpTableConsistent(rtp->state(vp))) {
      ++consistent;
      EXPECT_FALSE(rtp->table(vp).empty());
    }
  }
  EXPECT_GT(consistent, 0u);

  // Ground truth: the reconstructed table of a full-feed VP matches the
  // world's exported table at simulation end.
  const auto& arch = testutil::GetSmallArchive();
  const auto& cfg = arch.driver->collectors().back().config();
  ASSERT_EQ(cfg.name, "rrc00");
  for (const auto& vp_spec : cfg.vps) {
    VpKey key{"rrc00", vp_spec.asn};
    if (!VpTableConsistent(rtp->state(key))) continue;
    auto reconstructed = rtp->table(key);
    auto truth = arch.driver->world().ExportedTable(vp_spec.asn,
                                                    vp_spec.full_feed);
    // Withdrawn-at-end prefixes may be mid-flap; allow small slack.
    EXPECT_NEAR(double(reconstructed.size()), double(truth.size()),
                double(truth.size()) * 0.02 + 2);
    // Spot-check paths on common prefixes.
    size_t checked = 0, matched = 0;
    for (const auto& [prefix, cell] : reconstructed) {
      auto it = truth.find(prefix);
      if (it == truth.end()) continue;
      ++checked;
      std::vector<bgp::Asn> expect_path{vp_spec.asn};
      expect_path.insert(expect_path.end(), it->second.path.begin(),
                         it->second.path.end());
      if (cell.as_path.hops() == expect_path) ++matched;
    }
    ASSERT_GT(checked, 0u);
    EXPECT_GE(double(matched), 0.98 * double(checked));
  }
}

TEST_F(CorsaroTest, RtDiffsAreFewerThanElems) {
  auto stream = MakeStream("rrc00");
  BgpCorsaro engine(stream.get(), 300);
  auto rt = std::make_unique<RoutingTables>();
  RoutingTables* rtp = rt.get();
  engine.AddPlugin(std::move(rt));
  engine.Run();
  // Skip the seeding bins (the first RIB dump necessarily creates one
  // diff per cell); after that, Fig. 9's observation holds per bin:
  // diff cells never exceed update elems.
  const auto& stats = rtp->bin_stats();
  ASSERT_GT(stats.size(), 3u);
  size_t total_elems = 0, total_diffs = 0;
  for (size_t i = 2; i < stats.size(); ++i) {
    total_elems += stats[i].elems;
    total_diffs += stats[i].diff_cells;
    EXPECT_LE(stats[i].diff_cells, stats[i].elems) << "bin " << i;
  }
  EXPECT_GT(total_elems, 0u);
  EXPECT_GT(total_diffs, 0u);
  EXPECT_LE(total_diffs, total_elems);
}

TEST_F(CorsaroTest, RtAccuracyAgainstRibGroundTruth) {
  // Dedicated archive with frequent RIBs so the shadow-vs-main comparison
  // of §6.2.1 runs several times within the window.
  std::string root = root_ + "_acc";
  std::filesystem::remove_all(root);
  sim::StandardSimOptions options;
  options.topo.num_tier1 = 3;
  options.topo.num_transit = 8;
  options.topo.num_stub = 20;
  options.topo.seed = 17;
  options.rv_collectors = 0;
  options.ris_collectors = 1;
  options.vps_per_collector = 4;
  options.publish_delay = 0;
  options.seed = 3;
  auto driver = sim::MakeStandardSim(options, root);
  driver->collectors().front().config();  // (RIS periods by default)
  // Shrink the RIB period by rebuilding the collector list.
  auto cfg = driver->collectors().front().config();
  driver->collectors().clear();
  cfg.rib_period = 1200;  // RIB every 20 minutes
  driver->AddCollector(cfg);
  Timestamp t0 = TimestampFromYmdHms(2016, 4, 1, 0, 0, 0);
  driver->AddFlapNoise(t0 + 30, t0 + 3570, 90.0, 60);
  ASSERT_TRUE(driver->Run(t0, t0 + 3600).ok());

  broker::Broker::Options bopt;
  bopt.clock = [] { return Timestamp(4102444800); };
  broker::Broker b(root, bopt);
  core::BrokerDataInterface di(&b);
  core::BgpStream stream;
  stream.SetInterval(t0, t0 + 3600);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());

  BgpCorsaro engine(&stream, 300);
  auto rt = std::make_unique<RoutingTables>();
  RoutingTables* rtp = rt.get();
  engine.AddPlugin(std::move(rt));
  engine.Run();
  // The collector dumps state messages and nothing is corrupted: the
  // evolved tables must match the later RIB dumps with zero mismatches.
  EXPECT_GT(rtp->rib_compared_prefixes(), 0u);
  EXPECT_EQ(rtp->rib_mismatches(), 0u);
}

TEST(RtUnit, CorruptUpdatesForceDownAndRibRecovers) {
  RoutingTables rt;
  // Feed a synthetic stream via RecordContext.
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };

  // 1. Announcement creates the VP implicitly.
  core::Record upd;
  upd.project = "ris";
  upd.collector = "rrc99";
  upd.dump_type = core::DumpType::Updates;
  upd.timestamp = 100;
  core::Elem ann;
  ann.type = core::ElemType::Announcement;
  ann.time = 100;
  ann.peer_asn = 65001;
  ann.prefix = P("10.0.0.0/8");
  ann.as_path = bgp::AsPath::Sequence({65001, 15169});
  feed(upd, {ann});
  VpKey vp{"rrc99", 65001};
  EXPECT_EQ(rt.table(vp).size(), 1u);
  EXPECT_EQ(rt.state(vp), VpState::Down);  // no RIB yet: not consistent

  // 2. Corrupted updates record: E3.
  core::Record bad;
  bad.collector = "rrc99";
  bad.dump_type = core::DumpType::Updates;
  bad.status = core::RecordStatus::CorruptedRecord;
  feed(bad, {});
  EXPECT_EQ(rt.state(vp), VpState::Down);

  // 3. A clean RIB dump brings the VP up.
  core::Record rib_start;
  rib_start.collector = "rrc99";
  rib_start.dump_type = core::DumpType::Rib;
  rib_start.position = core::DumpPosition::Start;
  rib_start.timestamp = 200;
  core::Elem rib_elem;
  rib_elem.type = core::ElemType::RibEntry;
  rib_elem.time = 200;
  rib_elem.peer_asn = 65001;
  rib_elem.prefix = P("10.0.0.0/8");
  rib_elem.as_path = bgp::AsPath::Sequence({65001, 15169});
  feed(rib_start, {rib_elem});
  EXPECT_EQ(rt.state(vp), VpState::DownRibApplication);

  core::Record rib_end;
  rib_end.collector = "rrc99";
  rib_end.dump_type = core::DumpType::Rib;
  rib_end.position = core::DumpPosition::End;
  rib_end.timestamp = 201;
  feed(rib_end, {});
  EXPECT_EQ(rt.state(vp), VpState::Up);
  EXPECT_EQ(rt.table(vp).size(), 1u);
}

TEST(RtUnit, CorruptRibDumpIsDiscarded) {
  RoutingTables rt;
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };
  VpKey vp{"c", 65001};

  core::Record rib_start;
  rib_start.collector = "c";
  rib_start.dump_type = core::DumpType::Rib;
  rib_start.position = core::DumpPosition::Start;
  core::Elem rib_elem;
  rib_elem.type = core::ElemType::RibEntry;
  rib_elem.time = 100;
  rib_elem.peer_asn = 65001;
  rib_elem.prefix = P("10.0.0.0/8");
  rib_elem.as_path = bgp::AsPath::Sequence({65001, 15169});
  feed(rib_start, {rib_elem});

  // Corrupt record mid-dump: E1 discards everything staged.
  core::Record bad;
  bad.collector = "c";
  bad.dump_type = core::DumpType::Rib;
  bad.status = core::RecordStatus::CorruptedRecord;
  feed(bad, {});
  EXPECT_EQ(rt.state(vp), VpState::Down);
  EXPECT_TRUE(rt.table(vp).empty());
}

TEST(RtUnit, E2OlderRibRecordDoesNotOverwriteNewerUpdate) {
  RoutingTables rt;
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };
  VpKey vp{"c", 65001};

  // RIB dump starts; stages an old route for 10/8.
  core::Record rib_start;
  rib_start.collector = "c";
  rib_start.dump_type = core::DumpType::Rib;
  rib_start.position = core::DumpPosition::Start;
  rib_start.timestamp = 100;
  core::Elem rib_elem;
  rib_elem.type = core::ElemType::RibEntry;
  rib_elem.time = 100;
  rib_elem.peer_asn = 65001;
  rib_elem.prefix = P("10.0.0.0/8");
  rib_elem.as_path = bgp::AsPath::Sequence({65001, 111});
  feed(rib_start, {rib_elem});

  // Meanwhile (before the dump ends) a *newer* update rewrites the path.
  core::Record upd;
  upd.collector = "c";
  upd.dump_type = core::DumpType::Updates;
  upd.timestamp = 150;
  core::Elem ann;
  ann.type = core::ElemType::Announcement;
  ann.time = 150;
  ann.peer_asn = 65001;
  ann.prefix = P("10.0.0.0/8");
  ann.as_path = bgp::AsPath::Sequence({65001, 222});
  feed(upd, {ann});

  core::Record rib_end;
  rib_end.collector = "c";
  rib_end.dump_type = core::DumpType::Rib;
  rib_end.position = core::DumpPosition::End;
  feed(rib_end, {});

  auto table = rt.table(vp);
  ASSERT_EQ(table.size(), 1u);
  // E2: the newer update wins over the older RIB record.
  EXPECT_EQ(table.begin()->second.as_path.ToString(), "65001 222");
}

// The stale check after a RIB dump keeps a main cell only if it changed
// after the dump floor, and the floor is the timestamp of the staged
// entry with the *smallest prefix* — neither the first record of the
// dump nor its earliest or latest timestamp. No fixture reaches a case
// where these differ, so a flat table could silently change the rule.
TEST(RtUnit, RibDumpFloorIsTheSmallestPrefixesTimestamp) {
  RoutingTables rt;
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };
  auto elem = [](core::ElemType type, Timestamp t, const char* prefix) {
    core::Elem e;
    e.type = type;
    e.time = t;
    e.peer_asn = 65001;
    e.prefix = P(prefix);
    e.as_path = bgp::AsPath::Sequence({65001, 15169});
    return e;
  };
  VpKey vp{"c", 65001};

  // Two routes learned from updates, absent from the coming dump.
  core::Record upd;
  upd.collector = "c";
  upd.dump_type = core::DumpType::Updates;
  feed(upd, {elem(core::ElemType::Announcement, 250, "30.0.0.0/8"),
             elem(core::ElemType::Announcement, 350, "40.0.0.0/8")});

  // The dump's first record (20/8 at 200) carries its earliest time,
  // the smallest prefix (10/8) is staged at 300, the last record at 400.
  core::Record rib;
  rib.collector = "c";
  rib.dump_type = core::DumpType::Rib;
  rib.position = core::DumpPosition::Start;
  feed(rib, {elem(core::ElemType::RibEntry, 200, "20.0.0.0/8")});
  rib.position = core::DumpPosition::Middle;
  feed(rib, {elem(core::ElemType::RibEntry, 300, "10.0.0.0/8")});
  feed(rib, {elem(core::ElemType::RibEntry, 400, "25.0.0.0/8")});
  rib.position = core::DumpPosition::End;
  feed(rib, {});

  // Floor 300: 30/8 (250) is withdrawn, 40/8 (350) is kept. A floor of
  // 200 would keep both; a floor of 400 would withdraw both.
  std::set<Prefix> announced;
  for (const auto& [prefix, cell] : rt.table(vp)) announced.insert(prefix);
  EXPECT_EQ(announced, (std::set<Prefix>{P("10.0.0.0/8"), P("20.0.0.0/8"),
                                         P("25.0.0.0/8"), P("40.0.0.0/8")}));
}

// Withdrawing a prefix the VP never announced still creates a withdrawn
// main cell. That cell makes the VP's table non-empty, so a RIB dump
// without the VP declares it down (the absent-from-RIB rule) instead of
// leaving it up.
TEST(RtUnit, WithdrawnUnknownPrefixCountsForAbsentFromRib) {
  RoutingTables rt;
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };
  VpKey vp{"c", 65001};

  core::Record upd;
  upd.collector = "c";
  upd.dump_type = core::DumpType::Updates;
  core::Elem st;
  st.type = core::ElemType::PeerState;
  st.peer_asn = 65001;
  st.new_state = bgp::FsmState::Established;
  feed(upd, {st});
  ASSERT_EQ(rt.state(vp), VpState::Up);
  core::Elem wd;
  wd.type = core::ElemType::Withdrawal;
  wd.time = 100;
  wd.peer_asn = 65001;
  wd.prefix = P("10.0.0.0/8");
  feed(upd, {wd});
  EXPECT_TRUE(rt.table(vp).empty());

  // A dump that carries another VP's routes only.
  core::Record rib;
  rib.collector = "c";
  rib.dump_type = core::DumpType::Rib;
  rib.position = core::DumpPosition::Start;
  core::Elem other;
  other.type = core::ElemType::RibEntry;
  other.time = 200;
  other.peer_asn = 65002;
  other.prefix = P("20.0.0.0/8");
  other.as_path = bgp::AsPath::Sequence({65002, 15169});
  feed(rib, {other});
  EXPECT_EQ(rt.state(vp), VpState::UpRibApplication);
  rib.position = core::DumpPosition::End;
  feed(rib, {});
  EXPECT_EQ(rt.state(vp), VpState::Down);
  EXPECT_EQ(rt.state(VpKey{"c", 65002}), VpState::Up);
}

// A long live run must not grow the attribute intern table without
// bound: a (path, communities) set that no main cell, staged RIB entry
// or pre-bin value references any more is reclaimed. 10,000 distinct
// paths churn over one prefix; the table holds the live cell's set plus
// at most the bin's pre-bin value.
TEST(RtUnit, InternTableTracksLiveCellsUnderPathChurn) {
  core::Executor executor({.threads = 2});
  for (size_t shards : {size_t(1), size_t(3)}) {
    RoutingTables::Options opt;
    opt.shards = shards;
    opt.executor = shards > 1 ? &executor : nullptr;
    RoutingTables rt(opt);
    auto live_sets = [&] {
      size_t live = 0;
      for (const auto& s : rt.shard_stats()) live += s.attr_sets;
      return live;
    };
    core::Record upd;
    upd.collector = "c";
    upd.dump_type = core::DumpType::Updates;
    core::Elem ann;
    ann.type = core::ElemType::Announcement;
    ann.peer_asn = 65001;
    ann.prefix = P("10.0.0.0/8");
    constexpr int kPaths = 10000;
    for (int i = 0; i < kPaths; ++i) {
      ann.time = 100 + i;
      ann.as_path = bgp::AsPath::Sequence({65001, bgp::Asn(100000 + i)});
      upd.timestamp = ann.time;
      std::vector<core::Elem> elems{ann};
      RecordContext ctx{upd, elems, {}};
      rt.OnRecord(ctx);
      if (i % 100 == 99)
        rt.OnBinEnd(Timestamp(i) * 300, Timestamp(i + 1) * 300);
      if (i % 1000 == 500) {
        EXPECT_LE(live_sets(), 2u) << "shards=" << shards;
      }
    }
    rt.OnBinEnd(Timestamp(kPaths) * 300, Timestamp(kPaths + 1) * 300);
    EXPECT_EQ(live_sets(), 1u) << "shards=" << shards;
    auto table = rt.table(VpKey{"c", 65001});
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table.begin()->second.as_path.ToString(),
              "65001 " + std::to_string(100000 + kPaths - 1));
  }
}

TEST(RtUnit, StateMessagesDriveFsm) {
  RoutingTables rt;
  auto feed = [&](core::Record& rec, const std::vector<core::Elem>& elems) {
    RecordContext ctx{rec, elems, {}};
    rt.OnRecord(ctx);
  };
  VpKey vp{"c", 65001};

  core::Record upd;
  upd.collector = "c";
  upd.dump_type = core::DumpType::Updates;
  core::Elem st;
  st.type = core::ElemType::PeerState;
  st.peer_asn = 65001;
  st.old_state = bgp::FsmState::OpenConfirm;
  st.new_state = bgp::FsmState::Established;
  feed(upd, {st});
  EXPECT_EQ(rt.state(vp), VpState::Up);

  st.old_state = bgp::FsmState::Established;
  st.new_state = bgp::FsmState::Idle;
  feed(upd, {st});
  EXPECT_EQ(rt.state(vp), VpState::Down);
}

}  // namespace
}  // namespace bgps::corsaro
