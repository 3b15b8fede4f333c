// Seeded, cached benchmark inputs and their reference outputs.
//
// Every input is a pure function of (seed, scale): the bgpsim mixed
// archive (archive-sync, fanout, and the live workload's backfill), the
// synthetic RIB archive (rib-rt) and the BMP frames pre-encoded from a
// default-size bgpsim corpus (live). Each is generated once into the
// cache directory and marked done with a marker file naming the
// options that built it.
//
// The reference outputs are the sequential path's: a synchronous
// BgpStream (unfiltered and filtered), a one-shard RoutingTables run,
// and a direct decode of every BMP frame (bmp::Decode, then bmp::ToMrt
// with the peer's learned local ASN, then elem extraction), which
// shares no code with LiveSource's spooling or the live stream. They
// are cached beside the inputs under the perfbench binary's build id,
// so a rebuilt program is checked against its own sequential path.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/corpus.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace perfbench {

// Elem filter of the fanout workload's second subscriber: every v4
// prefix of the simulator's 1.0.0.0/8 space in its lower half, so it
// passes a real share of the elems and none of the v6 or peer-state
// ones.
inline constexpr const char* kFilterKey = "prefix";
inline constexpr const char* kFilterValue = "any 1.0.0.0/9";

struct Scale {
  std::string name;                   // "full" or "tiny"
  bgps::sim::CorpusOptions archive;   // archive-sync, fanout, backfill
  // The archive workloads read the corpus's window up to its
  // archive_records-th record (in stream order). Corpus sizes differ by
  // ±15% between seeds (the seeded topology sets the table size); the
  // cut gives every seed the same work per pass.
  uint64_t archive_records = 0;
  bgps::sim::SyntheticRibOptions rib;  // rib-rt
  bgps::sim::CorpusOptions live;      // source of the BMP frames
  // Frames offered per second. Well below the knee on a 4-core VM
  // whose host is busy: at 20k/s the generator already ran up to 9 ms
  // late and the backfill rate halved when the host was loaded.
  double live_rate = 10000.0;
};

bgps::Result<Scale> ScaleFor(const std::string& name, uint64_t seed);

// A corpus and the window the workloads read: [start, end), end
// exclusive. `paths` are the dump files a stream over the window opens,
// in the order the broker serves them.
struct Archive {
  std::string root;
  bgps::Timestamp start = 0;
  bgps::Timestamp end = 0;
  std::vector<std::string> paths;
  uint64_t bytes = 0;  // of `paths`
  // Root of the head copies of `paths` (fanout's set-up), or empty.
  std::string heads;
};

// Records in the head copy of a dump file: its first kHeadRecords.
inline constexpr size_t kHeadRecords = 128;

// Where the head copy of `path`, a file under `a.root`, lives.
std::string HeadPath(const Archive& a, const std::string& path);

// Output of one sequential stream pass: counts and digest.
struct StreamRef {
  uint64_t records = 0;
  uint64_t elems = 0;
  uint64_t digest = 0;
};

struct RtRef {
  uint64_t records = 0;
  uint64_t bins = 0;
  uint64_t diff_cells = 0;
  uint64_t rib_mismatches = 0;
  uint64_t digest = 0;
};

// Pre-encoded BMP frames, back to back in one buffer.
struct Frames {
  bgps::Bytes blob;
  std::vector<size_t> offsets;  // frame i is [offsets[i], offsets[i+1])
  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const uint8_t> frame(size_t i) const {
    return {blob.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

struct LiveRef {
  StreamRef stream;
  std::vector<uint8_t> records_per_frame;  // in ingestion order
};

struct Inputs {
  Scale scale;
  Archive archive;
  StreamRef archive_ref;
  StreamRef filtered_ref;
  Archive rib;
  RtRef rib_ref;
  Frames frames;
  LiveRef live_ref;
  double generate_s = 0.0;  // spent generating missing inputs
  double reference_s = 0.0;  // spent computing missing references
};

// Generates (or finds cached) everything `workload` needs.
bgps::Result<Inputs> EnsureInputs(const std::string& workload,
                                  const std::string& cache_dir,
                                  const Scale& scale, uint64_t seed);

// Reads every file of the window once so timed passes start from a warm
// page cache.
void WarmArchive(const Archive& archive);

}  // namespace perfbench
