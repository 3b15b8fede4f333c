// bgpfanout — record-plane fan-out daemon (paper §6.1 deployment).
//
// Runs the decode pipeline over an MRT archive exactly once — a
// StreamPool-vended stream with full elem extraction — publishes the
// records as batches into an embedded message-queue cluster, and
// serves any number of TCP subscribers from those logs:
//     bgpfanout -d /tmp/archive --listen 6447 --retain-messages 64
//     printf 'FILTER collector rrc00\nGO\n' | nc 127.0.0.1 6447
// Every subscriber replays/tails the same decoded stream with its own
// filters evaluated at fan-out, byte-identical to a direct bgpreader
// run with those filters — the cost of N consumers is N socket writes,
// not N MRT decodes. A periodic StreamPool stats snapshot is published
// to the "stats" topic (one JSON object per snapshot); clients fetch
// the latest with the STATS command.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "broker/broker.hpp"
#include "core/data_interface.hpp"
#include "pool/fanout_server.hpp"
#include "pool/record_fanout.hpp"
#include "pool/stream_pool.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fputs(R"(usage: bgpfanout -d DIR [options]

archive:
  -d DIR          MRT archive root, served through the embedded broker
  -w START,END    publish window in UNIX seconds (default: everything)

service:
  --listen PORT   TCP port to bind on 127.0.0.1 (default 0 = pick an
                  ephemeral port; the bound port is printed to stderr)
  --once          exit once the archive is fully published (default:
                  keep serving subscribers until SIGINT/SIGTERM)

decode:
  --threads N     decode worker threads (default 4)
  --budget N      record-budget ledger for decode buffers (default 4096)

fan-out:
  --batch-records N
                  records per published batch (default 64)
  --retain-messages N
                  per-collector log retention, in batches; 0 keeps the
                  full history in memory (default 0)
  --retain-bytes N
                  per-collector log retention, in payload bytes
                  (default 0 = unbounded)
  --stats-interval S
                  seconds between pool stats snapshots on the "stats"
                  topic (default 5; 0 disables)

With bounded retention (--retain-messages / --retain-bytes) each
collector log holds at most its retention, plus one batch while a
subscriber's replay cursor pins it: that subscriber backpressures
publication instead of growing memory. With unbounded retention the full
decoded history is kept, so bound the window with -w.
)",
             stderr);
}

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  std::string archive;
  Timestamp window_start = 0;
  Timestamp window_end = 4102444800;  // 2100-01-01: effectively everything
  uint16_t listen_port = 0;
  bool once = false;
  size_t threads = 4;
  size_t budget = 4096;
  size_t batch_records = 64;
  mq::RetentionOptions retention;
  size_t stats_interval = 5;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgpfanout: %s\n", msg.c_str());
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
    auto need_count = [&](const char* missing,
                          size_t max = SIZE_MAX) -> Result<size_t> {
      const char* v = need_value();
      if (!v) return InvalidArgument(missing);
      return ParseCountFlag(arg, v, max);
    };
    if (arg == "-d") {
      const char* v = need_value();
      if (!v) return fail("-d needs a directory");
      archive = v;
    } else if (arg == "-w") {
      const char* v = need_value();
      if (!v) return fail("-w needs START,END");
      Result<TimeInterval> window = ParseTimeWindow(v);
      if (!window.ok()) return fail("-w " + window.status().message());
      if (window->live()) return fail("-w needs START,END");
      window_start = window->start;
      window_end = window->end;
    } else if (arg == "--listen") {
      Result<size_t> n = need_count("--listen needs a port", 65535);
      if (!n.ok()) return fail(n.status().message());
      listen_port = uint16_t(*n);
    } else if (arg == "--once") {
      once = true;
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
    } else if (arg == "--batch-records") {
      Result<size_t> n = need_count("--batch-records needs a count");
      if (!n.ok()) return fail(n.status().message());
      batch_records = *n;
      if (batch_records == 0) return fail("--batch-records must be > 0");
    } else if (arg == "--retain-messages") {
      Result<size_t> n = need_count("--retain-messages needs a count");
      if (!n.ok()) return fail(n.status().message());
      retention.max_messages = *n;
    } else if (arg == "--retain-bytes") {
      Result<size_t> n = need_count("--retain-bytes needs a byte count");
      if (!n.ok()) return fail(n.status().message());
      retention.max_bytes = *n;
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
  broker::Broker broker(archive, {});
  if (!broker.scan_status().ok()) return fail(broker.scan_status().ToString());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  auto pool = StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  if (!pool.ok()) return fail(pool.status().ToString());

  mq::Cluster cluster;
  // Recent-snapshots-only topic: STATS fetches the newest entry.
  cluster.CreateTopic(mq::kStatsTopic, 1,
                      mq::RetentionOptions{/*max_messages=*/16, 0});

  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  fopt.port = listen_port;
  pool::FanoutServer server(fopt);
  if (Status st = server.Start(); !st.ok())
    return fail(st.ToString());
  std::fprintf(stderr, "bgpfanout: listening on 127.0.0.1:%u\n",
               unsigned(server.port()));

  core::BrokerDataInterface di(&broker);
  auto stream = (*pool)->CreateStream({}, {.name = "publisher"});
  stream->SetInterval(window_start, window_end);
  stream->SetDataInterface(&di);
  if (Status st = stream->Start(); !st.ok()) return fail(st.ToString());

  pool::RecordPublisher::Options popt;
  popt.cluster = &cluster;
  popt.batch_records = batch_records;
  popt.topic_retention = retention;

  Status publish_status = OkStatus();
  pool::RecordPublisher::Stats publish_stats;
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    pool::RecordPublisher pub(popt);
    auto result = pub.Run(*stream);
    if (result.ok()) {
      publish_stats = *result;
    } else {
      publish_status = result.status();
    }
    published.store(true);
  });

  // Foreground loop: periodic stats snapshots until shutdown (signal,
  // or --once after the archive is fully published). 200ms ticks keep
  // both exits prompt.
  const size_t ticks_per_snapshot = stats_interval * 5;
  size_t tick = ticks_per_snapshot;  // publish one snapshot at startup
  while (g_signal == 0 && !(once && published.load())) {
    if (stats_interval > 0 && tick >= ticks_per_snapshot) {
      mq::Message m;
      std::string json = SnapshotJson((*pool)->Stats());
      m.value.assign(json.begin(), json.end());
      cluster.Publish(mq::kStatsTopic, 0, std::move(m));
      tick = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ++tick;
  }

  server.Stop();
  publisher.join();
  if (!publish_status.ok())
    std::fprintf(stderr, "bgpfanout: publish failed: %s\n",
                 publish_status.ToString().c_str());
  std::fprintf(stderr,
               "bgpfanout: published %llu records / %llu elems in %llu "
               "batches across %llu collectors; %zu connection(s) served\n",
               (unsigned long long)publish_stats.records_published,
               (unsigned long long)publish_stats.elems_published,
               (unsigned long long)publish_stats.batches_published,
               (unsigned long long)publish_stats.collectors_seen,
               server.connections_served());
  return publish_status.ok() ? 0 : 1;
}
