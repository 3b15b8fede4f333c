// bgplive — live ingestion driver (paper §7: OpenBMP / exabgp feeds).
//
// Replays an MRT archive (typically a bgpsim corpus) as a live BMP or
// exabgp session at an accelerated clock, ingests the wire traffic
// through a pool::LiveSource, and consumes the resulting record stream
// as a weight-4 StreamPool tenant — the full live path, end to end, in
// one process:
//     bgpsim generate -d /tmp/corpus --scenario mixed
//     bgplive -d /tmp/corpus --speedup 256
// Every record the tenant emits is byte-identical to decoding the
// archive directly; the live tier only changes *when* data arrives.
// Periodic StreamPool snapshots (one JSON object per line, same section
// names as bgpreader --pool-stats-json) go to stderr with --stats-interval.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "broker/archive.hpp"
#include "core/clock.hpp"
#include "pool/live_source.hpp"
#include "pool/stream_pool.hpp"
#include "sim/replay.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fputs(R"(usage: bgplive -d DIR [options]

source:
  -d DIR          MRT archive root to replay as a live session

replay:
  --format F      wire format: bmp (RFC 7854 frames) or exabgp
                  (v4 JSON lines) (default bmp)
  --speedup N     virtual seconds per wall second (default 64, at
                  most 1e6)
  --max-records N stop after N replayed messages (default 0 = all)
  --chunk-bytes N deliver BMP frames in N-byte chunks to exercise
                  partial-frame reassembly (default 0 = whole frames)

live source:
  --spool DIR     directory of the spool segment live.mrt
                  (default: <archive>/.bgplive-spool)
  --flush-records N
                  most records per published micro-dump; a waiting
                  tenant gets pending records at once (default 64)

tenant:
  --threads N     pool decode worker threads (default 2)
  --budget N      shared record budget; the replay parks when the
                  ledger is full — live backpressure (default 4096)

output:
  --quiet         suppress per-record lines (summary only)
  --stats-interval S
                  seconds between pool stats JSON snapshots on stderr
                  (default 0 = off)
)",
             stderr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string archive;
  std::string spool;
  sim::ReplayFormat format = sim::ReplayFormat::Bmp;
  double speedup = 64.0;
  size_t max_records = 0;
  size_t chunk_bytes = 0;
  size_t flush_records = 64;
  size_t threads = 2;
  size_t budget = 4096;
  bool quiet = false;
  size_t stats_interval = 0;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgplive: %s\n", msg.c_str());
    Usage();
    return 1;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // The flag's value as a whole non-negative count (ParseCountFlag).
    auto need_count = [&](const char* missing) -> Result<size_t> {
      const char* v = need_value();
      if (!v) return InvalidArgument(missing);
      return ParseCountFlag(arg, v);
    };
    if (arg == "-d") {
      const char* v = need_value();
      if (!v) return fail("-d needs a directory");
      archive = v;
    } else if (arg == "--format") {
      const char* v = need_value();
      if (!v) return fail("--format needs bmp or exabgp");
      if (std::strcmp(v, "bmp") == 0) {
        format = sim::ReplayFormat::Bmp;
      } else if (std::strcmp(v, "exabgp") == 0) {
        format = sim::ReplayFormat::ExaBgp;
      } else {
        return fail("--format must be bmp or exabgp");
      }
    } else if (arg == "--speedup") {
      const char* v = need_value();
      if (!v) return fail("--speedup needs a factor");
      // At most 1e6: AcceleratedClock converts wall microseconds x
      // speedup to int64_t, which then holds for 106 days of wall time.
      Result<double> s = ParseRealFlag(arg, v, /*allow_zero=*/false,
                                       /*unit=*/{}, /*max=*/1e6);
      if (!s.ok()) return fail(s.status().message());
      speedup = *s;
    } else if (arg == "--max-records") {
      Result<size_t> n = need_count("--max-records needs a count");
      if (!n.ok()) return fail(n.status().message());
      max_records = *n;
    } else if (arg == "--chunk-bytes") {
      Result<size_t> n = need_count("--chunk-bytes needs a byte count");
      if (!n.ok()) return fail(n.status().message());
      chunk_bytes = *n;
    } else if (arg == "--spool") {
      const char* v = need_value();
      if (!v) return fail("--spool needs a directory");
      spool = v;
    } else if (arg == "--flush-records") {
      Result<size_t> n = need_count("--flush-records needs a count");
      if (!n.ok()) return fail(n.status().message());
      flush_records = *n;
      if (flush_records == 0) return fail("--flush-records must be > 0");
    } else if (arg == "--threads") {
      Result<size_t> n = need_count("--threads needs a count");
      if (!n.ok()) return fail(n.status().message());
      threads = *n;
      if (threads == 0) return fail("--threads must be > 0");
    } else if (arg == "--budget") {
      Result<size_t> n = need_count("--budget needs a record count");
      if (!n.ok()) return fail(n.status().message());
      budget = *n;
      if (budget == 0) return fail("--budget must be > 0");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--stats-interval") {
      Result<size_t> n = need_count("--stats-interval needs seconds");
      if (!n.ok()) return fail(n.status().message());
      stats_interval = *n;
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else {
      return fail("unknown option " + arg);
    }
  }

  if (archive.empty()) return fail("-d is required");
  // Before the pool and the spool: the default spool lives inside the
  // archive, and LiveSource::Create would make it under a missing root.
  broker::ArchiveIndex index(archive);
  if (Status st = index.Rescan(); !st.ok()) return fail(st.ToString());
  // ReplayArchive replays this same index, so it would fail on it too.
  if (index.files().empty())
    return fail(NotFoundError("no MRT files under " + archive).ToString());
  if (spool.empty()) spool = archive + "/.bgplive-spool";

  auto pool = StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  if (!pool.ok()) return fail(pool.status().ToString());

  pool::LiveSource::Options sopt;
  sopt.spool_dir = spool;
  sopt.flush_records = flush_records;
  sopt.governor = (*pool)->governor();
  auto source = pool::LiveSource::Create(std::move(sopt));
  if (!source.ok()) return fail(source.status().ToString());

  // The live tenant: a weight-4 stream reading the feed. The feed wakes
  // it on each publication; this 10 ms poll only runs after an idle
  // second without one.
  core::BgpStream::Options topt;
  topt.poll_wait = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  auto stream = (*pool)->CreateStream(
      std::move(topt), {.weight = 4, .name = "live"});
  stream->SetLive(0);
  stream->SetDataInterface((*source)->feed());
  if (Status st = stream->Start(); !st.ok()) return fail(st.ToString());

  // Session-reader thread: replay the archive as wire traffic into the
  // source. Backpressure (a full governor) blocks the Ingest call,
  // which pauses the replay — exactly what a TCP socket would do.
  Status replay_status = OkStatus();
  sim::ReplayStats replay_stats;
  std::thread session([&] {
    sim::ReplayOptions ropt;
    ropt.archive_root = archive;
    ropt.format = format;
    ropt.speedup = speedup;
    ropt.max_records = max_records;
    auto result = sim::ReplayArchive(
        ropt, [&](Timestamp, const Bytes& payload) -> Status {
          if (format == sim::ReplayFormat::Bmp) {
            if (chunk_bytes == 0) return (*source)->IngestBmp(payload);
            for (size_t off = 0; off < payload.size(); off += chunk_bytes) {
              size_t n = std::min(chunk_bytes, payload.size() - off);
              BGPS_RETURN_IF_ERROR((*source)->IngestBmp(
                  std::span<const uint8_t>(payload.data() + off, n)));
            }
            return OkStatus();
          }
          return (*source)->IngestExaBgpLine(
              std::string(payload.begin(), payload.end()));
        });
    if (result.ok()) {
      replay_stats = *result;
    } else {
      replay_status = result.status();
    }
    if (Status st = (*source)->Close(); !st.ok() && replay_status.ok())
      replay_status = st;
  });

  // Optional stats ticker, one JSON object per line on stderr.
  std::atomic<bool> done{false};
  std::thread ticker;
  if (stats_interval > 0) {
    ticker = std::thread([&] {
      size_t tick = 0;
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (++tick >= stats_interval * 5) {
          std::fprintf(stderr, "%s\n",
                       SnapshotJson((*pool)->Stats()).c_str());
          tick = 0;
        }
      }
    });
  }

  // Consumer loop: the live tenant's records, printed like a monitor.
  size_t records = 0, elems = 0;
  while (auto rec = stream->NextRecord()) {
    ++records;
    size_t n = stream->Elems(*rec).size();
    elems += n;
    if (!quiet)
      std::printf("%lld|%s|%s|%zu\n", (long long)rec->timestamp,
                  rec->project.c_str(), rec->collector.c_str(), n);
  }
  session.join();
  done.store(true);
  if (ticker.joinable()) ticker.join();

  if (!replay_status.ok())
    std::fprintf(stderr, "bgplive: replay failed: %s\n",
                 replay_status.ToString().c_str());
  if (!stream->status().ok())
    std::fprintf(stderr, "bgplive: stream failed: %s\n",
                 stream->status().ToString().c_str());

  auto sstats = (*source)->stats();
  std::fprintf(stderr,
               "bgplive: replayed %zu messages (%zu updates, %zu state "
               "changes, %zu skipped); ingested %zu, %zu corrupt, %zu "
               "parks; %zu micro-dumps; consumed %zu records / %zu "
               "elems\n",
               replay_stats.records_replayed, replay_stats.updates,
               replay_stats.state_changes, replay_stats.skipped,
               sstats.messages_decoded, sstats.corrupt_frames, sstats.parks,
               sstats.dumps_published, records, elems);
  return replay_status.ok() && stream->status().ok() ? 0 : 1;
}
