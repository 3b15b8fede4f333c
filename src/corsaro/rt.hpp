// routing-tables (RT) plugin (paper §6.2.1–6.2.2).
//
// Reconstructs the observable Loc-RIB of every VP at fine time
// granularity: a RIB dump seeds the table, Updates dumps evolve it, and
// subsequent RIB dumps sanity-check and correct it. State and routes live
// in a prefix × VP "matrix"; each cell carries the reachability
// attributes, the last-modified timestamp and an A/W flag. A shadow cell
// stages records of an in-progress RIB dump until its last record is seen
// (events E1–E4 of the paper are all implemented; see rt_fsm.hpp for the
// per-VP FSM).
//
// At the end of each time bin the plugin emits diff cells — only the
// changed portion of each VP's table (§6.2.2) — plus periodic full
// snapshots consumers can bootstrap from.
//
// Sharded execution (§5's shard-by-independent-key shape on our own
// Executor): per-(collector, peer) state is independent between bin
// boundaries, so with Options::shards > 1 and an Options::executor each
// elem is routed by a stable hash of its VpKey to one of N shards, whose
// apply-loops run as serialized Executor tasks (core::Strand — one task
// of a shard in flight at a time, in stream order). RIB begin/end/abort
// and corrupt events are broadcast to every shard in stream position, so
// each shard sees exactly the global op sequence filtered to its own
// VPs. OnBinEnd is a barrier: it drains all shards, lays every shard's
// changed VPs out in global (VpKey, Prefix) order, and has each shard
// write its diff cells into place — the emitted diff stream,
// bin stats, accuracy counters and per-VP tables are byte-identical to
// the sequential path at any shard count. With shards == 1 or no
// executor, each batch applies inline on the caller's thread.
//
// Table layout (rt.cpp): a shard numbers the prefixes it sees and interns
// each distinct (AS path, communities) set, so a VP's main table is a
// dense vector of 16-byte cells {attribute id, last_modified, flags}
// indexed by prefix id. A RIB dump stages into an append-only vector
// that EndRib merges in one pass, and the cells touched in a bin are an
// index of (prefix id, pre-bin value) sorted by prefix only when the bin
// closes. RtCell values are built only when emitted.
#pragma once

#include <map>
#include <memory>

#include "core/strand.hpp"
#include "corsaro/plugin.hpp"
#include "corsaro/rt_fsm.hpp"

namespace bgps::corsaro {

struct VpKey {
  std::string collector;
  bgp::Asn peer = 0;
  auto operator<=>(const VpKey&) const = default;
};

// One cell of the prefix × VP matrix.
struct RtCell {
  bgp::AsPath as_path;
  bgp::Communities communities;
  Timestamp last_modified = 0;
  bool announced = false;  // A/W flag

  bool operator==(const RtCell&) const = default;
};

// A changed cell published at the end of a bin.
struct DiffCell {
  VpKey vp;
  Prefix prefix;
  RtCell cell;  // announced == false -> the prefix was withdrawn

  bool operator==(const DiffCell&) const = default;
};

struct RtBinStats {
  Timestamp bin_start = 0;
  size_t elems = 0;       // announcement/withdrawal elems seen in the bin
  size_t diff_cells = 0;  // cells that changed in the bin

  bool operator==(const RtBinStats&) const = default;
};

// Per-shard observability (scaling counters for the benches).
struct RtShardStats {
  size_t vps = 0;            // VPs owned by this shard
  size_t applied_elems = 0;  // update + RIB elems this shard applied
  size_t batches = 0;        // apply batches it ran (on its strand or inline)
  double apply_s = 0.0;      // seconds spent in those batches, EndRib included
  size_t attr_sets = 0;      // live interned (AS path, communities) sets
};

struct RoutingTablesOptions {
  // Emit a full snapshot every N bins (0 = never) — consumers use these
  // to (re)synchronize before applying diffs (§6.2.2).
  size_t snapshot_every_bins = 0;
  // Declare a VP down when a RIB dump contains none of its routes
  // (the paper's mitigation for RouteViews' missing state messages).
  bool down_if_absent_from_rib = true;
  // VP-partitioned shards. 1 = classic sequential apply on the caller's
  // thread. N > 1 requires `executor`; output is identical at any value.
  size_t shards = 1;
  // Pool running the shard apply-loops (one serialized tenant per
  // shard). Not owned; must outlive the plugin. nullptr forces inline
  // application regardless of `shards`.
  core::Executor* executor = nullptr;
  // Elems buffered per shard before a batch is applied — posted to its
  // strand, or run inline (amortizes queue traffic and the apply-time
  // clock reads; flushed at every bin/introspection point).
  size_t batch_elems = 512;
};

class RoutingTables : public Plugin {
 public:
  using Options = RoutingTablesOptions;

  using DiffCallback =
      std::function<void(Timestamp bin_start, const std::vector<DiffCell>&)>;
  using SnapshotCallback = std::function<void(
      Timestamp bin_start, const VpKey&, const std::map<Prefix, RtCell>&)>;

  explicit RoutingTables(Options options = {});
  ~RoutingTables() override;

  std::string_view name() const override { return "routing-tables"; }
  void OnRecord(RecordContext& ctx) override;
  void OnBinEnd(Timestamp bin_start, Timestamp bin_end) override;
  void OnFinish() override;

  void set_diff_callback(DiffCallback cb) { on_diffs_ = std::move(cb); }
  void set_snapshot_callback(SnapshotCallback cb) { on_snapshot_ = std::move(cb); }

  // --- introspection (consumers, tests, benches) ---
  // All introspection drains in-flight shard work first, so values are
  // consistent as of every record handed to OnRecord so far.
  VpState state(const VpKey& vp) const;
  // Announced cells only (the reconstructed routing table).
  std::map<Prefix, RtCell> table(const VpKey& vp) const;
  std::vector<VpKey> vps() const;
  const std::vector<RtBinStats>& bin_stats() const { return bin_stats_; }

  // Accuracy counters (§6.2.1): mismatches between the table evolved from
  // updates and the ground truth of the next RIB dump, over all compared
  // prefixes.
  size_t rib_compared_prefixes() const;
  size_t rib_mismatches() const;

  // Per-shard work distribution (size == shard count).
  std::vector<RtShardStats> shard_stats() const;
  // VP-table visits performed by RIB begin/end/abort and update-corrupt
  // events, across all shards. With the per-collector VP index this is
  // O(VPs of the event's collector) per event, not O(all VPs) — pinned
  // by a regression test.
  size_t rib_boundary_visits() const;

 private:
  // Per-shard state (VP tables, prefix ids, attribute intern table);
  // defined in rt.cpp.
  struct Shard;

  // One buffered operation of a shard's apply stream. It carries only
  // what apply reads: the interned collector id instead of its name, and
  // no peer address or next hop.
  struct Op {
    enum class Kind : uint8_t {
      kUpdateElem,      // announcement / withdrawal / peer-state elem
      kRibElem,         // RIB_*_UNICAST entry
      kBeginRib,        // broadcast
      kEndRib,          // broadcast
      kAbortRib,        // broadcast (E1)
      kUpdateCorrupt,   // broadcast (E3)
    };
    Kind kind = Kind::kUpdateElem;
    core::ElemType type = core::ElemType::Announcement;
    bool established = false;  // peer-state elem: new state is Established
    uint32_t collector = 0;    // index into collector_names_
    bgp::Asn peer = 0;
    // The elem's (AS path, communities), encoded in Batch::words.
    uint32_t attrs = 0;
    uint32_t attrs_len = 0;
    Timestamp time = 0;
    Prefix prefix;
  };

  struct Batch {
    std::vector<Op> ops;
    std::vector<uint32_t> words;  // encoded attributes of every op
  };

  size_t ShardOf(uint64_t collector_hash, bgp::Asn peer) const;
  bool threaded() const { return !strands_.empty(); }
  uint32_t CollectorId(const std::string& name);
  // The shard holding `vp`'s table, and the collector's id; nullptr when
  // no record of the collector was seen.
  const Shard* ShardFor(const VpKey& vp, uint32_t* collector) const;
  // Buffers one elem op for its shard.
  void RouteElem(Op::Kind kind, uint32_t collector, const core::Elem& elem);
  // Queues a collector-scoped event on every shard, in stream position.
  void Broadcast(Op::Kind kind, uint32_t collector);
  // Appends `op` to the shard's batch and flushes a full batch.
  void Push(size_t shard, const Op& op);
  // Applies a shard's pending batch: inline, or posted to its strand.
  void FlushShard(size_t shard);
  // Flushes every pending batch and waits for all strands to go idle —
  // after this the caller's thread may touch any shard.
  void Drain() const;
  // Runs `fn` on every shard — on the shards' strands when threaded —
  // and returns when all are done.
  template <typename Fn>
  void OnEachShard(Fn fn);
  // Collects the bin's diffs in global (VpKey, Prefix) order: each shard
  // settles its dirty index, then writes its cells straight into place.
  std::vector<DiffCell> CollectDiffs();

  Options options_;
  size_t shard_count_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Batch buffers filled by OnRecord, one per shard.
  std::vector<Batch> pending_;
  // Collector names by id. Only OnRecord appends; shards read them at
  // bin end, while OnBinEnd waits for them.
  std::map<std::string, uint32_t, std::less<>> collector_ids_;
  std::vector<std::string> collector_names_;
  // FNV-1a state after each name's bytes: ShardOf mixes in the peer.
  std::vector<uint64_t> collector_hashes_;
  uint32_t last_collector_ = 0;
  // Destruction order matters: strands drain against live tenants, so
  // strands_ (declared last) is destroyed first, then tenants_.
  std::vector<std::unique_ptr<core::Executor::Tenant>> tenants_;
  std::vector<std::unique_ptr<core::Strand>> strands_;

  std::vector<RtBinStats> bin_stats_;
  size_t bin_elems_ = 0;
  size_t bins_seen_ = 0;
  DiffCallback on_diffs_;
  SnapshotCallback on_snapshot_;
};

}  // namespace bgps::corsaro
