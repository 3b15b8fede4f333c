#include "corsaro/rt.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace bgps::corsaro {

const char* VpStateName(VpState s) {
  switch (s) {
    case VpState::Down: return "down";
    case VpState::DownRibApplication: return "down-rib-application";
    case VpState::Up: return "up";
    case VpState::UpRibApplication: return "up-rib-application";
  }
  return "?";
}

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// Cell flag bits.
constexpr uint8_t kPresent = 1;    // the VP has a cell for the prefix
constexpr uint8_t kAnnounced = 2;  // the A/W flag
constexpr uint8_t kDirty = 4;      // touched this bin (has a dirty entry)
constexpr uint8_t kInRib = 8;      // EndRib scratch: staged in the dump

// MurmurHash3's finalizer: every input bit reaches the low 32 bits the
// indexes below probe with.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint32_t HashPrefix(const Prefix& p) {
  uint64_t hi = 0, lo = 0;
  std::memcpy(&hi, p.address().bytes().data(), 8);
  std::memcpy(&lo, p.address().bytes().data() + 8, 8);
  const uint64_t tail = uint64_t(p.length()) << 1 | p.address().is_v6();
  return uint32_t(Mix64(hi ^ Mix64(lo ^ tail)));
}

// Prefix order (family, address bytes, length) without the out-of-line
// byte loop of Prefix::operator<=>.
bool PrefixLess(const Prefix& a, const Prefix& b) {
  if (a.family() != b.family()) return a.family() == IpFamily::V4;
  int c = std::memcmp(a.address().bytes().data(), b.address().bytes().data(),
                      a.address().is_v4() ? 4 : 16);
  if (c != 0) return c < 0;
  return a.length() < b.length();
}

// Appends the elem's (AS path, communities) as words: the segment count,
// then (type, length, ASNs...) per segment, then the community count and
// the raw communities.
void EncodeAttrs(const core::Elem& elem, std::vector<uint32_t>& out) {
  const auto& segments = elem.as_path.segments();
  out.push_back(uint32_t(segments.size()));
  for (const auto& seg : segments) {
    out.push_back(uint32_t(seg.type));
    out.push_back(uint32_t(seg.asns.size()));
    out.insert(out.end(), seg.asns.begin(), seg.asns.end());
  }
  out.push_back(uint32_t(elem.communities.size()));
  for (bgp::Community c : elem.communities) out.push_back(c.raw());
}

// Words of an encoded set that encode its AS path.
size_t PathWords(const uint32_t* words) {
  size_t n = 1;
  for (uint32_t s = 0; s < words[0]; ++s) n += 2 + words[n + 1];
  return n;
}

// Open-addressing index of nonzero uint32 ids keyed by a caller-computed
// hash; the caller's predicate decides whether an id's content matches.
// Linear probing at load <= 1/2 and backward-shift erase, so neither a
// lookup nor an erase allocates.
class IdIndex {
 public:
  template <typename Match>
  uint32_t Find(uint32_t hash, Match match) const {
    if (slots_.empty()) return 0;
    for (size_t i = hash & mask(); slots_[i].id != 0; i = (i + 1) & mask()) {
      if (slots_[i].hash == hash && match(slots_[i].id)) return slots_[i].id;
    }
    return 0;
  }

  void Insert(uint32_t hash, uint32_t id) {
    if ((used_ + 1) * 2 > slots_.size()) Grow();
    size_t i = hash & mask();
    while (slots_[i].id != 0) i = (i + 1) & mask();
    slots_[i] = Slot{id, hash};
    ++used_;
  }

  void Erase(uint32_t hash, uint32_t id) {
    size_t i = hash & mask();
    while (slots_[i].id != id) i = (i + 1) & mask();
    // Pull each later member of the probe run whose home slot is not in
    // (i, j] back into the hole, so every run stays contiguous.
    for (size_t j = (i + 1) & mask(); slots_[j].id != 0; j = (j + 1) & mask()) {
      size_t home = slots_[j].hash & mask();
      if (((j - home) & mask()) >= ((j - i) & mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --used_;
  }

 private:
  struct Slot {
    uint32_t id = 0;  // 0 = empty
    uint32_t hash = 0;
  };

  size_t mask() const { return slots_.size() - 1; }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    used_ = 0;
    for (const Slot& s : old) {
      if (s.id != 0) Insert(s.hash, s.id);
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

// A shard's (AS path, communities) sets, each stored once and named by a
// 32-bit id. Main cells, staged RIB entries and pre-bin dirty values
// each hold one reference; a set no longer referenced is erased and its
// id reused, so the table tracks the live cells, not the history. Id 0
// is the empty set (no path, no communities), which needs no entry.
class AttrTable {
 public:
  // Id of the encoded set words[0, n); a new set starts unreferenced.
  uint32_t Intern(const uint32_t* words, size_t n) {
    if (n == 2 && words[0] == 0 && words[1] == 0) return 0;
    uint64_t h = kFnvBasis;
    for (size_t i = 0; i < n; ++i) h = (h ^ words[i]) * kFnvPrime;
    const uint32_t hash = uint32_t(Mix64(h));
    uint32_t id = index_.Find(hash, [&](uint32_t id) {
      const Entry& e = entries_[id - 1];
      return e.words.size() == n &&
             std::equal(e.words.begin(), e.words.end(), words);
    });
    if (id != 0) return id;
    if (free_.empty()) {
      entries_.emplace_back();
      id = uint32_t(entries_.size());
    } else {
      id = free_.back();
      free_.pop_back();
    }
    Entry& e = entries_[id - 1];
    e.words.reserve(n);
    for (size_t i = 0; i < n; ++i) e.words.push_back(words[i]);
    e.path_words = uint32_t(PathWords(words));
    e.hash = hash;
    index_.Insert(hash, id);
    ++live_;
    return id;
  }

  void Ref(uint32_t id) {
    if (id != 0) ++entries_[id - 1].refs;
  }

  void Unref(uint32_t id) {
    if (id == 0) return;
    Entry& e = entries_[id - 1];
    if (--e.refs != 0) return;
    index_.Erase(e.hash, id);
    e.words = decltype(e.words)();  // frees a spilled set
    free_.push_back(id);
    --live_;
  }

  // True when the two sets carry the same AS path (communities aside).
  bool SamePath(uint32_t a, uint32_t b) const {
    if (a == b) return true;
    static constexpr uint32_t kEmpty[] = {0};
    const uint32_t* wa = a == 0 ? kEmpty : entries_[a - 1].words.data();
    const uint32_t* wb = b == 0 ? kEmpty : entries_[b - 1].words.data();
    size_t na = a == 0 ? 1 : entries_[a - 1].path_words;
    size_t nb = b == 0 ? 1 : entries_[b - 1].path_words;
    return na == nb && std::equal(wa, wa + na, wb);
  }

  void Decode(uint32_t id, RtCell& cell) const {
    if (id == 0) return;
    const uint32_t* w = entries_[id - 1].words.data();
    const uint32_t segments = *w++;
    for (uint32_t s = 0; s < segments; ++s) {
      bgp::AsPathSegment seg;
      seg.type = bgp::SegmentType(*w++);
      const uint32_t asns = *w++;
      for (uint32_t i = 0; i < asns; ++i) seg.asns.push_back(*w++);
      cell.as_path.append_segment(std::move(seg));
    }
    const uint32_t communities = *w++;
    for (uint32_t i = 0; i < communities; ++i)
      cell.communities.push_back(bgp::Community(*w++));
  }

  size_t live() const { return live_; }

 private:
  struct Entry {
    SmallVec<uint32_t, 12> words;  // the encoded set (see EncodeAttrs)
    uint32_t path_words = 0;       // leading words that encode the path
    uint32_t refs = 0;
    uint32_t hash = 0;
  };

  std::vector<Entry> entries_;  // by id - 1
  std::vector<uint32_t> free_;  // ids of erased entries
  IdIndex index_;
  size_t live_ = 0;
};

}  // namespace

// One VP partition. Only its strand (or the caller's thread, inline mode
// / after a drain) touches it, so no per-shard locking is needed.
struct RoutingTables::Shard {
  // One cell of a VP's main table (16 bytes).
  struct Cell {
    Timestamp last_modified = 0;
    uint32_t attrs = 0;  // AttrTable id
    uint8_t flags = 0;
  };
  // One record of the in-progress RIB dump.
  struct RibEntry {
    uint32_t prefix;
    uint32_t attrs;  // holds a reference
    Timestamp time;
  };
  // A cell touched this bin, with its value at the start of the bin — a
  // diff is emitted only if the content actually changed, so a flap
  // that reverts within one bin publishes nothing (§6.2.2 redundancy
  // elimination).
  struct DirtyEntry {
    uint32_t prefix;
    Cell before;  // its attrs hold a reference
  };

  struct CollectorState {
    // Per-collector VP index: RIB boundary events visit exactly the
    // collector's own VPs instead of scanning the whole table.
    std::vector<uint32_t> vps;
    // Each shard tracks every collector's RIB progress independently
    // (broadcast ops keep the copies in sync) so Vp() creation works
    // without cross-shard reads.
    bool rib_active = false;
  };

  struct VpTable {
    uint32_t collector = 0;
    bgp::Asn peer = 0;
    VpState state = VpState::Down;
    bool in_current_rib = false;  // saw entries in the in-progress RIB dump
    size_t cells = 0;             // present main cells, withdrawn included
    std::vector<Cell> main;       // by prefix id
    std::vector<RibEntry> rib;    // the staged dump, in arrival order
    std::vector<DirtyEntry> dirty;
  };

  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Shard(bool down_if_absent)
      : down_if_absent_from_rib(down_if_absent) {}

  static void Transition(VpTable& vp, VpInput input) {
    vp.state = VpNextState(vp.state, input);
  }

  CollectorState& Collector(uint32_t collector) {
    if (collector >= collectors.size()) collectors.resize(collector + 1);
    return collectors[collector];
  }

  const VpTable* FindVp(uint32_t collector, bgp::Asn peer) const {
    uint32_t id = vp_index.Find(VpHash(collector, peer), [&](uint32_t id) {
      return vps[id - 1].collector == collector && vps[id - 1].peer == peer;
    });
    return id == 0 ? nullptr : &vps[id - 1];
  }

  // VpKey order, with collector ids resolved through `names`.
  static bool VpLess(const std::vector<std::string>& names, const VpTable& a,
                     const VpTable& b) {
    if (a.collector != b.collector)
      return names[a.collector] < names[b.collector];
    return a.peer < b.peer;
  }

  static uint32_t VpHash(uint32_t collector, bgp::Asn peer) {
    return uint32_t(Mix64(uint64_t(collector) << 32 | peer));
  }

  // Index of the VP's table, created on first sight.
  uint32_t Vp(uint32_t collector, bgp::Asn peer) {
    if (last_vp != kNone && vps[last_vp].collector == collector &&
        vps[last_vp].peer == peer)
      return last_vp;
    if (const VpTable* found = FindVp(collector, peer)) {
      last_vp = uint32_t(found - vps.data());
      return last_vp;
    }
    last_vp = uint32_t(vps.size());
    VpTable& vp = vps.emplace_back();
    vp.collector = collector;
    vp.peer = peer;
    vp_index.Insert(VpHash(collector, peer), last_vp + 1);
    CollectorState& c = Collector(collector);
    c.vps.push_back(last_vp);
    // A VP discovered mid-stream joins an in-progress RIB dump, if any.
    if (c.rib_active) Transition(vp, VpInput::RibStart);
    return last_vp;
  }

  uint32_t PrefixId(const Prefix& prefix) {
    if (last_prefix != kNone && prefixes[last_prefix] == prefix)
      return last_prefix;
    const uint32_t hash = HashPrefix(prefix);
    uint32_t id = prefix_index.Find(
        hash, [&](uint32_t id) { return prefixes[id - 1] == prefix; });
    if (id == 0) {
      prefixes.push_back(prefix);
      id = uint32_t(prefixes.size());
      prefix_index.Insert(hash, id);
    }
    last_prefix = id - 1;
    return last_prefix;
  }

  static Cell& CellOf(VpTable& vp, uint32_t prefix) {
    if (prefix >= vp.main.size()) vp.main.resize(prefix + 1);
    return vp.main[prefix];
  }

  static void MakePresent(VpTable& vp, Cell& cell) {
    if (cell.flags & kPresent) return;
    cell.flags |= kPresent;
    ++vp.cells;
  }

  // Marks the cell as touched, remembering its pre-bin value.
  void Touch(uint32_t vp_index, VpTable& vp, uint32_t prefix) {
    Cell& cell = vp.main[prefix];
    if (cell.flags & kDirty) return;  // keep the earliest pre-bin value
    if (vp.dirty.empty()) dirty_vps.push_back(vp_index);
    attrs.Ref(cell.attrs);
    vp.dirty.push_back(DirtyEntry{prefix, cell});
    cell.flags |= kDirty;
  }

  // Sets the cell's route; `owned` is a reference the caller hands over.
  void Assign(Cell& cell, uint32_t owned, Timestamp time, bool announced) {
    attrs.Unref(cell.attrs);
    cell.attrs = owned;
    cell.last_modified = time;
    cell.flags = announced ? uint8_t(cell.flags | kAnnounced)
                           : uint8_t(cell.flags & ~kAnnounced);
  }

  void DropStagedRib(VpTable& vp) {
    for (const RibEntry& e : vp.rib) attrs.Unref(e.attrs);
    vp.rib.clear();
    vp.in_current_rib = false;
  }

  void ApplyBatch(const Batch& batch) {
    const auto start = std::chrono::steady_clock::now();
    for (const Op& op : batch.ops) Apply(op, batch.words.data());
    ++batches;
    apply_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  }

  void Apply(const Op& op, const uint32_t* words) {
    switch (op.kind) {
      case Op::Kind::kUpdateElem:
        ApplyUpdateElem(op, words);
        break;
      case Op::Kind::kRibElem:
        ApplyRibElem(op, words);
        break;
      case Op::Kind::kBeginRib:
        ResetRib(op.collector, VpInput::RibStart);
        break;
      case Op::Kind::kEndRib:
        EndRib(op.collector);
        break;
      case Op::Kind::kAbortRib:
        ResetRib(op.collector, VpInput::RibCorrupt);
        break;
      case Op::Kind::kUpdateCorrupt:
        UpdateCorrupt(op.collector);
        break;
    }
  }

  void ApplyUpdateElem(const Op& op, const uint32_t* words) {
    ++applied_elems;
    const uint32_t v = Vp(op.collector, op.peer);
    VpTable& vp = vps[v];
    if (op.type == core::ElemType::PeerState) {
      Transition(vp, op.established ? VpInput::StateEstablished
                                    : VpInput::StateDown);
      return;
    }
    // Announcements/withdrawals modify main cells in every state (during
    // down-RIB-application the paper applies updates to main cells while
    // the RIB stages separately), gated on timestamp monotonicity. Even
    // a withdrawal of an unknown prefix leaves a (withdrawn) cell.
    const uint32_t p = PrefixId(op.prefix);
    Cell& cell = CellOf(vp, p);
    MakePresent(vp, cell);
    if (op.time < cell.last_modified) return;
    Touch(v, vp, p);
    const bool announced = op.type == core::ElemType::Announcement;
    uint32_t id = 0;
    if (announced) {
      id = attrs.Intern(words + op.attrs, op.attrs_len);
      attrs.Ref(id);
    }
    Assign(cell, id, op.time, announced);
    Transition(vp, VpInput::Update);
  }

  void ApplyRibElem(const Op& op, const uint32_t* words) {
    ++applied_elems;
    VpTable& vp = vps[Vp(op.collector, op.peer)];
    vp.in_current_rib = true;
    const uint32_t id = attrs.Intern(words + op.attrs, op.attrs_len);
    attrs.Ref(id);
    vp.rib.push_back(RibEntry{PrefixId(op.prefix), id, op.time});
  }

  // A RIB dump begins (RibStart) or is abandoned (E1, RibCorrupt: at
  // least one of its records was corrupted — ignore it all): the
  // collector's VPs drop whatever they staged.
  void ResetRib(uint32_t collector, VpInput input) {
    CollectorState& c = Collector(collector);
    c.rib_active = input == VpInput::RibStart;
    for (uint32_t v : c.vps) {
      ++boundary_visits;
      DropStagedRib(vps[v]);
      Transition(vps[v], input);
    }
  }

  void EndRib(uint32_t collector) {
    CollectorState& c = Collector(collector);
    c.rib_active = false;
    for (uint32_t v : c.vps) {
      ++boundary_visits;
      VpTable& vp = vps[v];
      if (!vp.in_current_rib) {
        // The paper's RouteViews mitigation: a VP absent from the RIB dump
        // is presumed down (stale cells would otherwise linger forever).
        if (down_if_absent_from_rib && vp.cells != 0) {
          Transition(vp, VpInput::StateDown);
          for (uint32_t p = 0; p < vp.main.size(); ++p) {
            if (!(vp.main[p].flags & kAnnounced)) continue;
            Touch(v, vp, p);
            vp.main[p].flags &= ~kAnnounced;
          }
        }
        Transition(vp, VpInput::RibEnd);
        continue;
      }
      MergeRib(v, vp);
      Transition(vp, VpInput::RibEnd);
    }
  }

  // One pass over the staged dump, newest entry first: a prefix's last
  // record wins, and the kInRib mark skips its earlier ones.
  void MergeRib(uint32_t v, VpTable& vp) {
    if (vp.main.size() < prefixes.size()) vp.main.resize(prefixes.size());
    // Cells absent from the dump are kept if modified after the dump
    // floor: the timestamp of the dump's smallest prefix.
    Timestamp dump_floor = 0;
    uint32_t floor_prefix = kNone;
    for (auto e = vp.rib.rbegin(); e != vp.rib.rend(); ++e) {
      Cell& cell = vp.main[e->prefix];
      if (cell.flags & kInRib) {
        attrs.Unref(e->attrs);
        continue;
      }
      cell.flags |= kInRib;
      if (floor_prefix == kNone ||
          PrefixLess(prefixes[e->prefix], prefixes[floor_prefix])) {
        floor_prefix = e->prefix;
        dump_floor = e->time;
      }
      if (cell.flags & kPresent) {
        // Accuracy check (§6.2.1): the evolved main cell should match the
        // dump's ground truth unless it was updated at or after the
        // record's timestamp (E2 with tie tolerance) — then main wins.
        ++rib_compared;
        if (cell.last_modified >= e->time) {
          attrs.Unref(e->attrs);
          continue;
        }
        if (!(cell.flags & kAnnounced) || !attrs.SamePath(cell.attrs, e->attrs))
          ++rib_mismatches;
      } else {
        MakePresent(vp, cell);
      }
      Touch(v, vp, e->prefix);
      Assign(cell, e->attrs, e->time, true);
    }
    // Announced cells absent from the dump: if not touched by newer
    // updates, the VP no longer routes them.
    for (uint32_t p = 0; p < vp.main.size(); ++p) {
      Cell& cell = vp.main[p];
      if (cell.flags & kInRib) {
        cell.flags &= ~kInRib;
        continue;
      }
      if (!(cell.flags & kAnnounced) || cell.last_modified > dump_floor)
        continue;
      Touch(v, vp, p);
      cell.flags &= ~kAnnounced;
    }
    vp.rib.clear();  // every staged reference was handed over or dropped
    vp.in_current_rib = false;
  }

  void UpdateCorrupt(uint32_t collector) {
    for (uint32_t v : Collector(collector).vps) {
      ++boundary_visits;
      Transition(vps[v], VpInput::UpdateCorrupt);
    }
  }

  void Fill(const Cell& cell, RtCell& out) const {
    attrs.Decode(cell.attrs, out);
    out.last_modified = cell.last_modified;
    out.announced = (cell.flags & kAnnounced) != 0;
  }

  // Content equality ignoring the bookkeeping timestamp: a cell whose
  // route did not actually change publishes no diff. Interned sets are
  // equal exactly when their ids are.
  static bool SameContent(const Cell& a, const Cell& b) {
    const bool announced = (a.flags & kAnnounced) != 0;
    if (announced != ((b.flags & kAnnounced) != 0)) return false;
    return !announced || a.attrs == b.attrs;
  }

  // Bin end, first step: sorts the touched VPs by VpKey and each one's
  // dirty index by prefix, settles every entry, and keeps only the cells
  // whose content changed. `runs` lists (VP, changed cells) in order.
  void SettleDirty(const std::vector<std::string>& names) {
    std::sort(dirty_vps.begin(), dirty_vps.end(), [&](uint32_t a, uint32_t b) {
      return VpLess(names, vps[a], vps[b]);
    });
    runs.clear();
    for (uint32_t v : dirty_vps) {
      VpTable& vp = vps[v];
      std::sort(vp.dirty.begin(), vp.dirty.end(),
                [&](const DirtyEntry& a, const DirtyEntry& b) {
                  return PrefixLess(prefixes[a.prefix], prefixes[b.prefix]);
                });
      size_t changed = 0;
      for (const DirtyEntry& d : vp.dirty) {
        Cell& cell = vp.main[d.prefix];
        cell.flags &= ~kDirty;
        // A cell whose content reverted in-bin publishes nothing.
        if (!SameContent(d.before, cell)) vp.dirty[changed++] = d;
        attrs.Unref(d.before.attrs);
      }
      vp.dirty.resize(changed);
      if (changed != 0) runs.push_back(Run{v, changed, 0});
    }
    dirty_vps.clear();
  }

  // Bin end, second step: writes each run's diff cells from its offset
  // in `out` on, then empties the dirty index.
  void WriteDiffs(const std::vector<std::string>& names,
                  std::vector<DiffCell>& out) {
    for (const Run& run : runs) {
      VpTable& vp = vps[run.vp];
      DiffCell* dst = out.data() + run.offset;
      for (const DirtyEntry& d : vp.dirty) {
        dst->vp.collector = names[vp.collector];
        dst->vp.peer = vp.peer;
        dst->prefix = prefixes[d.prefix];
        Fill(vp.main[d.prefix], dst->cell);
        ++dst;
      }
      vp.dirty.clear();
    }
    runs.clear();
  }

  const bool down_if_absent_from_rib;
  std::vector<VpTable> vps;
  IdIndex vp_index;  // (collector, peer) -> index in vps + 1
  uint32_t last_vp = kNone;
  // Prefix ids: every prefix any of this shard's VPs has seen.
  std::vector<Prefix> prefixes;
  IdIndex prefix_index;  // prefix -> id + 1
  uint32_t last_prefix = kNone;
  AttrTable attrs;
  std::vector<CollectorState> collectors;  // by collector id
  // VPs touched this bin — bin-end diff collection visits only these.
  std::vector<uint32_t> dirty_vps;
  size_t rib_compared = 0;
  size_t rib_mismatches = 0;
  size_t applied_elems = 0;
  size_t batches = 0;
  double apply_s = 0.0;
  size_t boundary_visits = 0;
  // Bin-end scratch: the VPs with changed cells, in VpKey order, and
  // where their cells go in the merged diff vector.
  struct Run {
    uint32_t vp;
    size_t cells;
    size_t offset;
  };
  std::vector<Run> runs;
};

RoutingTables::RoutingTables(Options options)
    : options_(options), shard_count_(options.shards == 0 ? 1 : options.shards) {
  shards_.reserve(shard_count_);
  for (size_t i = 0; i < shard_count_; ++i)
    shards_.push_back(
        std::make_unique<Shard>(options_.down_if_absent_from_rib));
  pending_.resize(shard_count_);
  if (options_.executor != nullptr && options_.executor->threads() > 0) {
    tenants_.reserve(shard_count_);
    strands_.reserve(shard_count_);
    for (size_t i = 0; i < shard_count_; ++i) {
      tenants_.push_back(options_.executor->CreateTenant());
      strands_.push_back(std::make_unique<core::Strand>(tenants_[i].get()));
    }
  }
}

RoutingTables::~RoutingTables() { Drain(); }

size_t RoutingTables::ShardOf(uint64_t collector_hash, bgp::Asn peer) const {
  if (shard_count_ == 1) return 0;
  // FNV-1a over the VpKey bytes (the collector's, then the peer's):
  // stable across runs and platforms, so a given VP always lands on the
  // same shard (the determinism anchor).
  uint64_t h = collector_hash;
  for (int i = 0; i < 4; ++i) {
    h ^= uint8_t(peer >> (8 * i));
    h *= kFnvPrime;
  }
  return size_t(h % shard_count_);
}

uint32_t RoutingTables::CollectorId(const std::string& name) {
  if (last_collector_ < collector_names_.size() &&
      collector_names_[last_collector_] == name)
    return last_collector_;
  auto [it, added] =
      collector_ids_.try_emplace(name, uint32_t(collector_names_.size()));
  if (added) {
    uint64_t h = kFnvBasis;
    for (char c : name) {
      h ^= uint8_t(c);
      h *= kFnvPrime;
    }
    collector_names_.push_back(name);
    collector_hashes_.push_back(h);
  }
  last_collector_ = it->second;
  return it->second;
}

const RoutingTables::Shard* RoutingTables::ShardFor(const VpKey& vp,
                                                    uint32_t* collector) const {
  auto it = collector_ids_.find(vp.collector);
  if (it == collector_ids_.end()) return nullptr;
  *collector = it->second;
  return shards_[ShardOf(collector_hashes_[it->second], vp.peer)].get();
}

void RoutingTables::Push(size_t shard, const Op& op) {
  pending_[shard].ops.push_back(op);
  size_t batch = options_.batch_elems == 0 ? 1 : options_.batch_elems;
  if (pending_[shard].ops.size() >= batch) FlushShard(shard);
}

void RoutingTables::RouteElem(Op::Kind kind, uint32_t collector,
                              const core::Elem& elem) {
  const size_t s = ShardOf(collector_hashes_[collector], elem.peer_asn);
  Op op;
  op.kind = kind;
  op.type = elem.type;
  op.established = elem.new_state == bgp::FsmState::Established;
  op.collector = collector;
  op.peer = elem.peer_asn;
  op.time = elem.time;
  op.prefix = elem.prefix;
  if (kind == Op::Kind::kRibElem || elem.type == core::ElemType::Announcement) {
    std::vector<uint32_t>& words = pending_[s].words;
    op.attrs = uint32_t(words.size());
    EncodeAttrs(elem, words);
    op.attrs_len = uint32_t(words.size()) - op.attrs;
  }
  Push(s, op);
}

void RoutingTables::Broadcast(Op::Kind kind, uint32_t collector) {
  Op op;
  op.kind = kind;
  op.collector = collector;
  for (size_t s = 0; s < shard_count_; ++s) Push(s, op);
}

void RoutingTables::FlushShard(size_t shard) {
  Batch& pending = pending_[shard];
  if (pending.ops.empty()) return;
  Shard* target = shards_[shard].get();
  if (!threaded()) {
    target->ApplyBatch(pending);
    pending.ops.clear();
    pending.words.clear();
    return;
  }
  Batch batch;
  std::swap(batch, pending);
  pending.ops.reserve(batch.ops.size());
  pending.words.reserve(batch.words.size());
  strands_[shard]->Post(
      [target, batch = std::move(batch)] { target->ApplyBatch(batch); });
}

void RoutingTables::Drain() const {
  auto* self = const_cast<RoutingTables*>(this);
  for (size_t s = 0; s < self->shard_count_; ++s) self->FlushShard(s);
  for (auto& strand : self->strands_) strand->Drain();
}

void RoutingTables::OnRecord(RecordContext& ctx) {
  const core::Record& rec = ctx.record;
  if (rec.status == core::RecordStatus::Unsupported) return;
  const uint32_t collector = CollectorId(rec.collector);

  if (rec.status != core::RecordStatus::Valid) {
    if (rec.dump_type == core::DumpType::Rib) {
      Broadcast(Op::Kind::kAbortRib, collector);  // E1
    } else {
      Broadcast(Op::Kind::kUpdateCorrupt, collector);  // E3
    }
    return;
  }

  if (rec.dump_type == core::DumpType::Rib) {
    if (rec.position == core::DumpPosition::Start)
      Broadcast(Op::Kind::kBeginRib, collector);
    for (const auto& elem : ctx.elems) {
      if (elem.type == core::ElemType::RibEntry)
        RouteElem(Op::Kind::kRibElem, collector, elem);
    }
    if (rec.position == core::DumpPosition::End)
      Broadcast(Op::Kind::kEndRib, collector);
    return;
  }

  // The bin elem counter tracks every elem of valid updates records —
  // counted on the driver thread so bin stats never wait on shards.
  bin_elems_ += ctx.elems.size();
  for (const auto& elem : ctx.elems)
    RouteElem(Op::Kind::kUpdateElem, collector, elem);
}

template <typename Fn>
void RoutingTables::OnEachShard(Fn fn) {
  if (threaded() && shard_count_ > 1) {
    // On the shards' own strands (the barrier's parallel reduce step);
    // the calling thread waits, so collector_names_ holds still.
    for (size_t s = 0; s < shard_count_; ++s) {
      Shard* shard = shards_[s].get();
      strands_[s]->Post([&fn, shard] { fn(*shard); });
    }
    for (auto& strand : strands_) strand->Drain();
  } else {
    for (auto& shard : shards_) fn(*shard);
  }
}

std::vector<DiffCell> RoutingTables::CollectDiffs() {
  Drain();
  OnEachShard([this](Shard& shard) { shard.SettleDirty(collector_names_); });

  // Lay the runs of all shards out in global VpKey order. Shards
  // partition the VP space, so keys never tie, and each run is already
  // in prefix order.
  std::vector<std::pair<const Shard*, Shard::Run*>> runs;
  for (auto& shard : shards_) {
    for (Shard::Run& run : shard->runs) runs.emplace_back(shard.get(), &run);
  }
  std::sort(runs.begin(), runs.end(), [this](const auto& a, const auto& b) {
    return Shard::VpLess(collector_names_, a.first->vps[a.second->vp],
                         b.first->vps[b.second->vp]);
  });
  size_t total = 0;
  for (auto& [shard, run] : runs) {
    run->offset = total;
    total += run->cells;
  }

  std::vector<DiffCell> out(total);
  OnEachShard([this, &out](Shard& shard) {
    shard.WriteDiffs(collector_names_, out);
  });
  return out;
}

void RoutingTables::OnBinEnd(Timestamp bin_start, Timestamp /*bin_end*/) {
  std::vector<DiffCell> diffs = CollectDiffs();
  bin_stats_.push_back(RtBinStats{bin_start, bin_elems_, diffs.size()});
  bin_elems_ = 0;
  ++bins_seen_;

  if (on_diffs_) on_diffs_(bin_start, diffs);
  if (on_snapshot_ && options_.snapshot_every_bins != 0 &&
      bins_seen_ % options_.snapshot_every_bins == 0) {
    for (const VpKey& key : vps()) {
      on_snapshot_(bin_start, key, table(key));
    }
  }
}

void RoutingTables::OnFinish() { Drain(); }

VpState RoutingTables::state(const VpKey& vp) const {
  Drain();
  uint32_t collector = 0;
  const Shard* shard = ShardFor(vp, &collector);
  const Shard::VpTable* t = shard ? shard->FindVp(collector, vp.peer) : nullptr;
  return t == nullptr ? VpState::Down : t->state;
}

std::map<Prefix, RtCell> RoutingTables::table(const VpKey& vp) const {
  Drain();
  std::map<Prefix, RtCell> out;
  uint32_t collector = 0;
  const Shard* shard = ShardFor(vp, &collector);
  const Shard::VpTable* t = shard ? shard->FindVp(collector, vp.peer) : nullptr;
  if (t == nullptr) return out;
  for (uint32_t p = 0; p < t->main.size(); ++p) {
    if (t->main[p].flags & kAnnounced)
      shard->Fill(t->main[p], out[shard->prefixes[p]]);
  }
  return out;
}

std::vector<VpKey> RoutingTables::vps() const {
  Drain();
  std::vector<VpKey> out;
  for (const auto& shard : shards_) {
    for (const auto& vp : shard->vps)
      out.push_back(VpKey{collector_names_[vp.collector], vp.peer});
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t RoutingTables::rib_compared_prefixes() const {
  Drain();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->rib_compared;
  return total;
}

size_t RoutingTables::rib_mismatches() const {
  Drain();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->rib_mismatches;
  return total;
}

std::vector<RtShardStats> RoutingTables::shard_stats() const {
  Drain();
  std::vector<RtShardStats> out;
  out.reserve(shard_count_);
  for (const auto& shard : shards_) {
    RtShardStats s;
    s.vps = shard->vps.size();
    s.applied_elems = shard->applied_elems;
    s.batches = shard->batches;
    s.apply_s = shard->apply_s;
    s.attr_sets = shard->attrs.live();
    out.push_back(s);
  }
  return out;
}

size_t RoutingTables::rib_boundary_visits() const {
  Drain();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->boundary_visits;
  return total;
}

}  // namespace bgps::corsaro
