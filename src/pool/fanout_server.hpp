// Line-protocol TCP front end of the record-plane fan-out tier: the
// reusable server behind the bgpfanout daemon (tools/bgpfanout.cpp),
// kept as a library class so tests drive real sockets in-process.
//
// One connection = one subscription. The client configures, then
// streams:
//
//   client: FILTER <key> <value...>     (0+ times; bgpreader filter keys)
//           FROM <seq>                  (optional replay start ordinal)
//           STATS                       (optional; latest stats snapshot)
//           GO                          (start streaming)
//   server: REC <seq> <ts> <collector> <dump_type> <status> <position> <n>
//           ELEM <type>|<time>|<peer_asn>|<prefix-or-->|<as_path>   (n per REC)
//           ...
//           END ok                      (clean end of stream)
//       or  ERR <message>               (bad command, or stream error —
//                                        e.g. TRUNCATED when retention
//                                        overran the requested replay)
//
// REC and ELEM carry exactly the record/elem fingerprint fields the
// identity pin compares, so a TCP subscriber's transcript is
// fingerprint-equal to a direct BgpStream run with the same filters.
// ELEM fields are '|'-separated because an AS path contains spaces (and
// may be empty).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pool/record_fanout.hpp"

namespace bgps::pool {

class FanoutServer {
 public:
  struct Options {
    mq::Cluster* cluster = nullptr;  // required
    // Port to bind on 127.0.0.1 (0 = ephemeral; see port()).
    uint16_t port = 0;
    // Forwarded to each connection's RecordSubscriber.
    size_t max_consecutive_polls = 0;
  };

  explicit FanoutServer(Options options) : options_(options) {}
  ~FanoutServer() { Stop(); }

  FanoutServer(const FanoutServer&) = delete;
  FanoutServer& operator=(const FanoutServer&) = delete;

  // Binds, listens, and starts the accept loop.
  Status Start();
  // Stops accepting, cancels live tails, and joins every thread.
  // Idempotent.
  void Stop();

  // Bound port (after Start(); resolves an ephemeral bind).
  uint16_t port() const { return port_; }
  size_t connections_served() const { return connections_served_.load(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Options options_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connections_served_{0};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace bgps::pool
