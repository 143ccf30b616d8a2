#include "serve/epoll_loop.hpp"

#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "util/logging.hpp"

namespace misuse::serve {

namespace {

constexpr std::size_t kReadChunk = 1 << 14;

}  // namespace

EpollLoop::EpollLoop(EpollConfig config, EpollHandlers handlers)
    : config_(std::move(config)),
      handlers_(std::move(handlers)),
      listener_(TcpListener::bind(config_.port, config_.host)) {
  if (!handlers_.on_lines) throw std::runtime_error("EpollLoop needs an on_lines handler");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  set_nonblocking(listener_.fd());
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // id 0 = the listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = UINT64_MAX;  // id MAX = the wake eventfd
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake);
}

EpollLoop::~EpollLoop() {
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollLoop::request_stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::uint64_t EpollLoop::connect(const std::string& host, std::uint16_t port) {
  const int fd = tcp_connect(host, port).release();
  set_nonblocking(fd);
  return add(fd);
}

bool EpollLoop::send(std::uint64_t id, std::string_view line) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return false;  // unknown or retired
  it->second.out.append(line);
  it->second.out.push_back('\n');
  queue_flush(id, it->second);
  return true;
}

void EpollLoop::hold(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it != conns_.end()) ++it->second.holds;
}

void EpollLoop::release(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.holds == 0) return;
  // A half-closed peer's last hold: flush_queued retires it once written.
  if (--it->second.holds == 0 && it->second.peer_eof) queue_flush(id, it->second);
}

void EpollLoop::close(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it != conns_.end()) retire(id, it->second);
}

void EpollLoop::update_interest(std::uint64_t id, Conn& conn, bool want_write) {
  // A half-closed peer leaves its fd EPOLLIN-ready (EOF) for good, so
  // from then on only writability may wake the loop for it.
  const std::uint32_t interest = (conn.peer_eof ? 0u : EPOLLIN) | (want_write ? EPOLLOUT : 0u);
  if (conn.interest == interest) return;
  conn.interest = interest;
  epoll_event ev{};
  ev.events = interest;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EpollLoop::retire(std::uint64_t id, Conn& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  // Gone before on_close runs, so a handler that send()s, close()s or
  // release()s from there sees the connection as retired.
  conns_.erase(id);
  if (handlers_.on_close) handlers_.on_close(id);
}

std::uint64_t EpollLoop::add(int fd) {
  const std::uint64_t id = next_id_++;
  Conn& conn = conns_[id];
  conn.fd = fd;
  conn.interest = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  return id;
}

void EpollLoop::accept_ready() {
  while (true) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion: log once per burst and let level-
        // triggered epoll re-report the pending accept next iteration
        // (after some connection retires and frees an fd).
        log_warn() << "accept: out of file descriptors; deferring new connections";
        return;
      }
      return;  // listener shut down or fatal — run() notices via stop_
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    add(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool EpollLoop::consume_lines(std::uint64_t id, Conn& conn) {
  lines_.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = conn.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::size_t end = nl;
    if (end > start && conn.in[end - 1] == '\r') --end;  // CRLF == LF
    lines_.push_back(std::string_view(conn.in).substr(start, end - start));
    start = nl + 1;
  }
  // The views point into conn.in, which stays untouched until the
  // handler returns.
  if (!lines_.empty()) handlers_.on_lines(id, lines_, conn.out);
  if (start > 0) conn.in.erase(0, start);
  if (conn.in.size() > config_.max_line_bytes) {
    // Same contract as LineReader::truncated(): an unbounded line is a
    // protocol violation, and the stream it arrived on is abandoned.
    overflowed_.fetch_add(1, std::memory_order_relaxed);
    log_warn() << "connection " << id << " exceeded the " << config_.max_line_bytes
               << "-byte line cap; closing";
    return false;
  }
  return true;
}

void EpollLoop::conn_readable(std::uint64_t id, Conn& conn) {
  // One read per readiness report, answered before the loop reads again.
  // Level-triggered epoll re-reports a socket that still holds data once
  // the other ready connections and on_tick have had their turn. Reading
  // to EAGAIN first would hold back every reply to a backlog (the peer
  // waits while this side scores it all), and a producer that keeps the
  // socket readable would starve on_tick.
  char buf[kReadChunk];
  std::size_t n = 0;
  switch (read_some(conn.fd, buf, sizeof(buf), n)) {
    case IoStatus::kWouldBlock:
      return;  // nothing arrived (or an injected EAGAIN); epoll re-reports
    case IoStatus::kError:
      retire(id, conn);  // peer reset
      return;
    case IoStatus::kEof:
      // Half-close: deliver a final unterminated line (LineReader
      // parity), flush what we owe, then retire (flush_conn).
      conn.peer_eof = true;
      if (!conn.in.empty()) {
        std::string line = std::move(conn.in);
        conn.in.clear();
        if (line.back() == '\r') line.pop_back();
        const std::string_view last = line;
        handlers_.on_lines(id, {&last, 1}, conn.out);
      }
      break;
    case IoStatus::kOk:
      conn.in.append(buf, n);
      if (!consume_lines(id, conn)) {
        retire(id, conn);
        return;
      }
      break;
  }
  flush_conn(id, conn);
}

bool EpollLoop::flush_conn(std::uint64_t id, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    std::size_t n = 0;
    const IoStatus status =
        write_some(conn.fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off, n);
    if (status == IoStatus::kOk) {
      conn.out_off += n;
      conn.drained = true;
      continue;
    }
    if (status == IoStatus::kError) {
      retire(id, conn);  // EPIPE/ECONNRESET under SIGPIPE-ignored
      return false;
    }
    // kWouldBlock. Drop the written prefix once it outweighs the rest, so
    // a peer that never quite catches up does not keep every byte sent.
    if (conn.out_off >= conn.out.size() - conn.out_off) {
      conn.out.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    // The retry is epoll's job: arm EPOLLOUT and hand control back.
    update_interest(id, conn, true);
    return true;
  }
  if (conn.peer_eof && conn.holds == 0) {
    retire(id, conn);  // half-closed and owed nothing more
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  update_interest(id, conn, false);
  return true;
}

void EpollLoop::drop_stalled() {
  // Size alone does not tell a stalled peer from a busy one: a node that
  // takes over a dead node's sessions gets their journals in one burst,
  // above the cap, and drains it while it scores. Progress is a write
  // that went through, or a shrinking kernel send queue (SIOCOUTQ): a
  // write needs EPOLLOUT, which waits until a third of the buffer is
  // free, and a busy peer can take longer than a tick to free that much.
  std::vector<std::uint64_t> stalled;
  for (auto& [id, conn] : conns_) {
    int unsent = INT_MAX;
    if (conn.out.size() - conn.out_off > config_.max_output_bytes &&
        ::ioctl(conn.fd, SIOCOUTQ, &unsent) == 0 && !conn.drained && unsent >= conn.unsent) {
      stalled.push_back(id);
    }
    conn.unsent = unsent;
    conn.drained = false;
  }
  for (const std::uint64_t id : stalled) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // an earlier on_close retired it
    overflowed_.fetch_add(1, std::memory_order_relaxed);
    log_warn() << "connection " << id << " exceeded the output backlog cap; closing";
    retire(id, it->second);
  }
}

void EpollLoop::queue_flush(std::uint64_t id, Conn& conn) {
  if (conn.queued) return;
  conn.queued = true;
  to_flush_.push_back(id);
}

void EpollLoop::flush_queued() {
  // By index: a retired connection's on_close may queue more (the
  // router's handoff to survivors).
  for (std::size_t i = 0; i < to_flush_.size(); ++i) {
    const std::uint64_t id = to_flush_[i];
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // retired since it was queued
    it->second.queued = false;
    flush_conn(id, it->second);
  }
  to_flush_.clear();
}

void EpollLoop::run() {
  const int tick_ms =
      config_.tick_seconds > 0.0 ? static_cast<int>(config_.tick_seconds * 1000.0) : 500;
  std::vector<epoll_event> events(256);
  // The wait unblocks SIGINT and SIGTERM, so a process that blocks them
  // everywhere else (misusedet_router) takes them only here, where its
  // handler's request_stop() reaches a running loop. For a thread that
  // does not block them this is plain epoll_wait.
  sigset_t wait_mask;
  ::pthread_sigmask(SIG_SETMASK, nullptr, &wait_mask);
  sigdelset(&wait_mask, SIGINT);
  sigdelset(&wait_mask, SIGTERM);
  auto last_tick = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_pwait(epoll_fd_, events.data(), static_cast<int>(events.size()), tick_ms,
                                &wait_mask);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_error() << "epoll_pwait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == 0) {
        accept_ready();
        continue;
      }
      if (id == UINT64_MAX) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // retired earlier this batch
      Conn& conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && (events[i].events & EPOLLIN) == 0) {
        retire(id, conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !flush_conn(id, conn)) continue;
      if ((events[i].events & EPOLLIN) != 0) conn_readable(id, conn);
    }
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_tick).count() >= config_.tick_seconds) {
      last_tick = now;
      drop_stalled();
      if (handlers_.on_tick) handlers_.on_tick();
    }
    flush_queued();
  }
  // Shutdown: one best-effort flush per connection, then close them all.
  // stop_ also covers a loop that broke on an epoll error, so on_close
  // handlers can tell shutdown from a lost peer.
  stop_.store(true, std::memory_order_release);
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (flush_conn(id, it->second)) retire(id, it->second);
  }
  listener_.close();
}

}  // namespace misuse::serve
