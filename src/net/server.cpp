#include "src/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/data/probes.hpp"

namespace mtsr::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") +
                             std::strerror(errno));
  }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(serving::Engine& engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      queue_(config_.max_queue_depth) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("bad listen host: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("bind(" + config_.host + "): " + err);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("listen: " + err);
  }
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (::pipe(wake_fd_) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  set_nonblocking(wake_fd_[0]);
  set_nonblocking(wake_fd_[1]);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.queue_cap = config_.max_queue_depth;
    counters_.slo_ms = config_.slo_ms;
  }
}

Server::~Server() {
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_[0] >= 0) ::close(wake_fd_[0]);
  if (wake_fd_[1] >= 0) ::close(wake_fd_[1]);
}

void Server::run() {
  stop_.store(false, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    poll_once(100);
  }
}

void Server::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // Best-effort: the pipe is only a wake-up; a full pipe already wakes.
  [[maybe_unused]] const auto n = ::write(wake_fd_[1], &byte, 1);
}

void Server::poll_once(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<Connection*> fd_conns;
  fds.push_back({listen_fd_, POLLIN, 0});
  fds.push_back({wake_fd_[0], POLLIN, 0});
  for (auto& [id, conn] : connections_) {
    if (conn->dead) continue;
    short events = POLLIN;
    if (conn->write_pos < conn->write_buf.size()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
    fd_conns.push_back(conn.get());
  }

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready > 0) {
    if (fds[1].revents & POLLIN) {
      char sink[64];
      while (::read(wake_fd_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) accept_ready();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      Connection& conn = *fd_conns[i - 2];
      if (conn.dead) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        destroy(conn, /*evicted=*/false);
        continue;
      }
      if (fds[i].revents & POLLOUT) write_ready(conn);
      if (conn.dead) continue;
      if (fds[i].revents & POLLIN) read_ready(conn);
    }
  }
  reap_dead();
  if (auto_drain_) drain();
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      return;  // transient accept errors: try again at the next wake
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                   sizeof(config_.send_buffer_bytes));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.connections_accepted;
      ++counters_.connections_open;
    }
    connections_.emplace(conn->id, std::move(conn));
  }
}

void Server::read_ready(Connection& conn) {
  std::uint8_t chunk[64 * 1024];
  std::int64_t got = 0;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.read_buf.insert(conn.read_buf.end(), chunk, chunk + n);
      got += n;
      continue;
    }
    if (n == 0) {  // orderly shutdown by the peer
      destroy(conn, /*evicted=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(conn, /*evicted=*/false);
    return;
  }
  if (got > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.bytes_in += got;
  }

  std::size_t offset = 0;
  try {
    while (!conn.dead) {
      std::size_t consumed = 0;
      auto frame =
          try_extract_frame(conn.read_buf.data() + offset,
                            conn.read_buf.size() - offset, &consumed,
                            config_.max_frame_bytes);
      if (!frame) break;
      offset += consumed;
      handle_frame(conn, *frame);
    }
  } catch (const ProtocolError&) {
    // Framing or payload structure lied; the stream cannot be resynced.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.protocol_errors;
    }
    destroy(conn, /*evicted=*/false);
    return;
  }
  if (offset > 0) {
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<std::ptrdiff_t>(offset));
  }
}

void Server::write_ready(Connection& conn) { flush(conn); }

void Server::handle_frame(Connection& conn, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.requests;
  }
  Request req = decode_request(frame);  // ProtocolError -> caller cuts conn
  switch (req.verb) {
    case Verb::kOpen:
      handle_open(conn, req.open);
      break;
    case Verb::kPush:
      handle_push(conn, std::move(req.push));
      break;
    case Verb::kClose:
      handle_close(conn, req.close);
      break;
    case Verb::kStats:
      handle_stats(conn);
      break;
  }
}

void Server::handle_open(Connection& conn, const OpenRequest& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.opens;
  }
  OpenResponse resp;
  if (req.instance >
      static_cast<std::uint8_t>(data::MtsrInstance::kMixture)) {
    resp.status = Status::kError;
    resp.error = "unknown MTSR instance ordinal";
  } else {
    serving::SessionConfig cfg;
    cfg.model = req.model;
    cfg.stream = req.stream;
    cfg.instance = static_cast<data::MtsrInstance>(req.instance);
    cfg.rows = req.rows;
    cfg.cols = req.cols;
    cfg.window = req.window;
    cfg.stitch_stride = req.stitch_stride;
    cfg.stats = data::NormStats{req.mean, req.stddev};
    cfg.log_transform = req.log_transform;
    try {
      const auto id = engine_.open_session(std::move(cfg));
      session_owner_[id] = conn.id;
      conn.sessions.push_back(id);
      resp.session = id;
      resp.temporal_length = engine_.session(id).temporal_length();
      resp.frames_until_ready = engine_.session(id).frames_until_ready();
    } catch (const std::exception& e) {
      resp.status = Status::kError;
      resp.error = e.what();
    }
  }
  if (resp.status == Status::kError) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.errors;
  }
  send_bytes(conn, encode_response(resp));
}

void Server::handle_push(Connection& conn, PushRequest req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.pushes;
  }
  PushResponse resp;
  resp.session = req.session;
  const auto owner = session_owner_.find(req.session);
  if (owner == session_owner_.end() || owner->second != conn.id) {
    resp.status = Status::kError;
    resp.error = "unknown session (or owned by another connection)";
  } else {
    // Checked here, not only in the drain's push_all: a bad frame answered
    // at the door never fails the co-drained sessions' round.
    std::string frame_error =
        engine_.session(req.session).frame_error(req.frame);
    if (!frame_error.empty()) {
      resp.status = Status::kError;
      resp.error = std::move(frame_error);
    } else {
      PendingPush pending;
      pending.connection = conn.id;
      pending.session = req.session;
      pending.frame = std::move(req.frame);
      pending.arrival = std::chrono::steady_clock::now();
      if (queue_.enqueue(std::move(pending))) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        counters_.queue_depth = queue_.depth();
        counters_.max_queue_depth = queue_.max_depth();
        return;  // answered by the dispatch round in drain()
      }
      resp.status = Status::kRejected;
      resp.retry_after_ms = config_.retry_after_ms;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (resp.status == Status::kError) ++counters_.errors;
    if (resp.status == Status::kRejected) ++counters_.rejected;
  }
  send_bytes(conn, encode_response(resp));
}

void Server::handle_close(Connection& conn, const CloseRequest& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.closes;
  }
  CloseResponse resp;
  resp.session = req.session;
  const auto owner = session_owner_.find(req.session);
  if (owner == session_owner_.end() || owner->second != conn.id) {
    resp.status = Status::kError;
    resp.error = "unknown session (or owned by another connection)";
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.errors;
  } else {
    queue_.drop_session(req.session);
    engine_.close_session(req.session);
    session_owner_.erase(owner);
    auto& owned = conn.sessions;
    owned.erase(std::find(owned.begin(), owned.end(), req.session));
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.queue_depth = queue_.depth();
  }
  send_bytes(conn, encode_response(resp));
}

void Server::handle_stats(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.stats_calls;
  }
  const auto full = stats();  // engine stats + front door (this thread)
  const auto& fd = *full.front_door;
  StatsResponse resp;
  resp.requests = fd.requests;
  resp.served = fd.served;
  resp.rejected = fd.rejected;
  resp.slo_violations = fd.slo_violations;
  resp.max_queue_depth = fd.max_queue_depth;
  resp.p50_ms = fd.p50_ms;
  resp.p99_ms = fd.p99_ms;
  resp.p999_ms = fd.p999_ms;
  if (full.online) {
    resp.online_steps = full.online->steps;
    resp.online_promoted = full.online->promoted;
    resp.online_rejected = full.online->rejected;
    resp.online_staleness_s = full.online->staleness_seconds;
    resp.online_holdout_nrmse = full.online->holdout_nrmse;
  }
  resp.table = serving::render_stats_table(full);
  send_bytes(conn, encode_response(resp));
}

void Server::drain() {
  for (;;) {
    auto round = queue_.next_round();
    if (round.empty()) break;

    std::vector<serving::Engine::SessionId> ids;
    std::vector<Tensor> frames;
    ids.reserve(round.size());
    frames.reserve(round.size());
    for (auto& pending : round) {
      ids.push_back(pending.session);
      frames.push_back(std::move(pending.frame));
    }

    std::vector<std::optional<Tensor>> results;
    std::string round_error;
    try {
      results = engine_.push_all(ids, frames);
    } catch (const std::exception& e) {
      round_error = e.what();
    }

    for (std::size_t i = 0; i < round.size(); ++i) {
      PushResponse resp;
      resp.session = round[i].session;
      bool is_served = false;
      if (!round_error.empty()) {
        resp.status = Status::kError;
        resp.error = round_error;
      } else if (results[i].has_value()) {
        resp.frame = std::move(*results[i]);
        is_served = true;
      } else {
        resp.status = Status::kWarmup;
        resp.frames_until_ready =
            engine_.session(round[i].session).frames_until_ready();
      }
      const double latency_ms = ms_since(round[i].arrival);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        counters_.queue_depth = queue_.depth();
        if (!round_error.empty()) {
          ++counters_.errors;
        } else {
          latency_.record(latency_ms * 1000.0);
          is_served ? ++counters_.served : ++counters_.warmups;
          if (is_served && latency_ms > config_.slo_ms) {
            ++counters_.slo_violations;
          }
        }
      }
      const auto it = connections_.find(round[i].connection);
      if (it != connections_.end() && !it->second->dead) {
        send_bytes(*it->second, encode_response(resp));
      }
    }
  }
  reap_dead();
}

void Server::send_bytes(Connection& conn, std::vector<std::uint8_t> bytes) {
  if (conn.dead) return;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    counters_.bytes_out += static_cast<std::int64_t>(bytes.size());
  }
  conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
  flush(conn);
  if (conn.dead) return;
  if (conn.write_buf.size() - conn.write_pos >
      static_cast<std::size_t>(config_.max_write_buffer)) {
    destroy(conn, /*evicted=*/true);
  }
}

void Server::flush(Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    destroy(conn, /*evicted=*/false);
    return;
  }
  conn.write_buf.clear();
  conn.write_pos = 0;
}

void Server::destroy(Connection& conn, bool evicted) {
  if (conn.dead) return;
  conn.dead = true;
  queue_.drop_connection(conn.id);
  for (const auto id : conn.sessions) {
    queue_.drop_session(id);
    session_owner_.erase(id);
    try {
      engine_.close_session(id);
    } catch (const std::exception&) {
      // Session already gone; the maps were authoritative enough.
    }
  }
  conn.sessions.clear();
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  --counters_.connections_open;
  if (evicted) ++counters_.evicted;
  counters_.queue_depth = queue_.depth();
}

void Server::reap_dead() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->dead) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

serving::FrontDoorStats Server::snapshot_locked() const {
  serving::FrontDoorStats s = counters_;
  s.p50_ms = latency_.quantile(0.50) / 1000.0;
  s.p99_ms = latency_.quantile(0.99) / 1000.0;
  s.p999_ms = latency_.quantile(0.999) / 1000.0;
  s.max_ms = latency_.max_micros() / 1000.0;
  return s;
}

serving::FrontDoorStats Server::front_door_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return snapshot_locked();
}

serving::Engine::Stats Server::stats() const {
  auto s = engine_.stats();
  s.front_door = front_door_stats();
  return s;
}

}  // namespace mtsr::net
