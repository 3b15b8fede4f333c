// Stress tier (ctest -L stress): the sharded RoutingTables pipeline over
// the full >= 1M-prefix synthetic RIB archive must produce output
// byte-identical to the sequential path — the acceptance bar for the
// sharded analytics tier at realistic global-table scale. The corpus is
// built lazily under the shared bench/stress cache dir (EnsureSyntheticRib),
// so repeated runs and the benches pay generation once per machine.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "core/executor.hpp"
#include "core/stream.hpp"
#include "corsaro/corsaro.hpp"
#include "corsaro/rt.hpp"
#include "sim/corpus.hpp"
#include "tests/rt_digest.hpp"

namespace bgps::corsaro {
namespace {

namespace fs = std::filesystem;

// Shared with bench/bench_rt_sharded.cpp (same options => same marker =>
// one generation serves both).
std::string MegaRibRoot() {
  return (fs::temp_directory_path() / "bgps_mega_rib_corpus").string();
}

sim::SyntheticRibOptions MegaRibOptions() {
  sim::SyntheticRibOptions options;  // 1M prefixes, 4 VPs, 4 windows
  return options;
}

using Digest = testutil::RtDigest;

struct RunResult {
  Digest digest;
  size_t rib_compared = 0;
  size_t rib_mismatches = 0;
  size_t vps = 0;
  uint64_t table_hash = 0;
  std::vector<RtShardStats> shard_stats;
};

RunResult RunMega(RoutingTables::Options options, Timestamp start,
                  Timestamp end) {
  broker::Broker::Options bopt;
  bopt.clock = [] { return Timestamp(4102444800); };
  broker::Broker broker(MegaRibRoot(), bopt);
  core::BrokerDataInterface di(&broker);

  core::BgpStream stream;
  stream.SetInterval(start, end);
  stream.SetDataInterface(&di);
  EXPECT_TRUE(stream.Start().ok());

  BgpCorsaro engine(&stream, 900);
  auto rt = std::make_unique<RoutingTables>(options);
  RoutingTables* rtp = rt.get();
  RunResult out;
  rtp->set_diff_callback(
      [&out](Timestamp bin_start, const std::vector<DiffCell>& diffs) {
        out.digest.Mix(uint64_t(bin_start));
        for (const auto& d : diffs) out.digest.MixCell(d);
        out.digest.diff_cells += diffs.size();
        ++out.digest.bins;
      });
  engine.AddPlugin(std::move(rt));
  engine.Run();

  out.rib_compared = rtp->rib_compared_prefixes();
  out.rib_mismatches = rtp->rib_mismatches();
  auto vps = rtp->vps();
  out.vps = vps.size();
  Digest tables;
  for (const auto& vp : vps) {
    tables.MixStr(vp.collector);
    tables.Mix(vp.peer);
    for (const auto& [prefix, cell] : rtp->table(vp)) {
      tables.MixCell(DiffCell{vp, prefix, cell});
    }
  }
  out.table_hash = tables.hash;
  out.shard_stats = rtp->shard_stats();
  return out;
}

TEST(RtMegaStress, MillionPrefixShardedOutputIsByteIdentical) {
  auto stats = sim::EnsureSyntheticRib(MegaRibOptions(), MegaRibRoot());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->rib_entries, size_t(2'000'000));  // initial + final RIB

  RunResult seq = RunMega({}, stats->start, stats->end);
  ASSERT_GT(seq.digest.bins, 0u);
  ASSERT_GT(seq.digest.diff_cells, 0u);
  ASSERT_GT(seq.rib_compared, 0u);
  EXPECT_EQ(seq.rib_mismatches, 0u);
  ASSERT_EQ(seq.vps, 4u);

  core::Executor executor({.threads = 4});
  RoutingTables::Options opt;
  opt.shards = 4;
  opt.executor = &executor;
  RunResult sharded = RunMega(opt, stats->start, stats->end);

  EXPECT_EQ(sharded.digest, seq.digest) << "diff stream diverged at scale";
  EXPECT_EQ(sharded.table_hash, seq.table_hash);
  EXPECT_EQ(sharded.rib_compared, seq.rib_compared);
  EXPECT_EQ(sharded.rib_mismatches, seq.rib_mismatches);
  EXPECT_EQ(sharded.vps, seq.vps);

  // The elems really were applied across shards.
  ASSERT_EQ(sharded.shard_stats.size(), 4u);
  size_t applied = 0, populated = 0;
  for (const auto& s : sharded.shard_stats) {
    applied += s.applied_elems;
    populated += (s.vps > 0);
  }
  size_t seq_applied = 0;
  for (const auto& s : seq.shard_stats) seq_applied += s.applied_elems;
  EXPECT_EQ(applied, seq_applied);
  EXPECT_GE(populated, 2u);
}

}  // namespace
}  // namespace bgps::corsaro
