#include "pool/fanout_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace bgps::pool {

namespace {

// Output flushed to the socket once this much is buffered — large
// replays must not pay one send() per line.
constexpr size_t kSendChunk = 64 * 1024;

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Status FanoutServer::Start() {
  if (!options_.cluster) return InvalidArgument("FanoutServer requires a cluster");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return IoError(ErrnoString("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError(ErrnoString("bind"));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError(ErrnoString("listen"));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stop_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void FanoutServer::Stop() {
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) t.join();
}

void FanoutServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 100);  // bounded wait, so Stop() is prompt
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void FanoutServer::ServeConnection(int fd) {
  ++connections_served_;
  // Bounded recv and send, so neither a silent client nor one that
  // stops reading can outlive Stop(): a timed-out call re-checks stop_.
  timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  auto send_all = [&](const std::string& data) -> bool {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        if (stop_.load()) return false;
        continue;
      }
      if (n <= 0) return false;
      off += size_t(n);
    }
    return true;
  };

  RecordSubscriber::Options sopt;
  sopt.cluster = options_.cluster;
  sopt.max_consecutive_polls = options_.max_consecutive_polls;
  sopt.cancel = [this] { return stop_.load(); };

  // --- command phase ---
  std::string buf;
  bool go = false;
  bool dead = false;
  while (!go && !dead && !stop_.load()) {
    auto nl = buf.find('\n');
    if (nl == std::string::npos) {
      char tmp[4096];
      ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
      if (n == 0) {
        dead = true;
      } else if (n < 0) {
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
          dead = true;
      } else {
        buf.append(tmp, size_t(n));
      }
      continue;
    }
    std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "GO") {
      go = true;
    } else if (cmd == "FROM") {
      uint64_t seq = 0;
      if (!(in >> seq)) {
        send_all("ERR FROM needs a sequence number\n");
        dead = true;
        break;
      }
      sopt.from_seq = seq;
    } else if (cmd == "FILTER") {
      std::string key, value;
      in >> key;
      std::getline(in, value);
      auto first = value.find_first_not_of(' ');
      value = first == std::string::npos ? "" : value.substr(first);
      // Some option parsers call std::stoul and throw on garbage; a
      // remote client's bad value must come back as ERR, not take the
      // connection thread down.
      Status st;
      try {
        st = sopt.filters.AddOption(key, value);
      } catch (const std::exception& e) {
        st = InvalidArgument(std::string("bad filter value: ") + e.what());
      }
      if (!st.ok()) {
        send_all("ERR " + st.message() + "\n");
        dead = true;
        break;
      }
    } else if (cmd == "STATS") {
      // Most recent stats-topic snapshot (the daemon publishes
      // StreamPool::Stats() JSON there periodically); "-" when none.
      std::string payload = "-";
      uint64_t end = options_.cluster->EndOffset(mq::kStatsTopic, 0);
      if (end > options_.cluster->FirstOffset(mq::kStatsTopic, 0)) {
        auto msgs = options_.cluster->Fetch(mq::kStatsTopic, 0, end - 1, 1);
        if (msgs.ok() && !msgs->empty())
          payload.assign((*msgs)[0]->value.begin(), (*msgs)[0]->value.end());
      }
      if (!send_all("STATS " + payload + "\n")) dead = true;
    } else {
      send_all("ERR unknown command " + cmd + "\n");
      dead = true;
    }
  }
  if (!go || dead || stop_.load()) {
    ::close(fd);
    return;
  }

  // --- streaming phase ---
  RecordSubscriber sub(std::move(sopt));
  if (Status st = sub.Start(); !st.ok()) {
    send_all("ERR " + st.ToString() + "\n");
    ::close(fd);
    return;
  }
  std::string out;
  out.reserve(kSendChunk + 4096);
  bool sendable = true;
  while (auto rec = sub.NextRecord()) {
    auto elems = sub.Elems(*rec);
    out += "REC ";
    out += std::to_string(sub.next_seq() - 1);
    out += ' ';
    out += std::to_string(int64_t(rec->timestamp));
    out += ' ';
    out += rec->collector.str();
    out += ' ';
    out += std::to_string(int(rec->dump_type));
    out += ' ';
    out += std::to_string(int(rec->status));
    out += ' ';
    out += std::to_string(int(rec->position));
    out += ' ';
    out += std::to_string(elems.size());
    out += '\n';
    for (const auto& e : elems) {
      out += "ELEM ";
      out += std::to_string(int(e.type));
      out += '|';
      out += std::to_string(int64_t(e.time));
      out += '|';
      out += std::to_string(e.peer_asn);
      out += '|';
      out += e.has_prefix() ? e.prefix.ToString() : "-";
      out += '|';
      out += e.as_path.ToString();
      out += '\n';
    }
    if (out.size() >= kSendChunk) {
      if (!send_all(out)) {
        sendable = false;
        break;
      }
      out.clear();
    }
  }
  if (sendable) {
    out += sub.status().ok() ? "END ok\n" : "ERR " + sub.status().ToString() + "\n";
    send_all(out);
  }
  ::close(fd);
}

}  // namespace bgps::pool
