#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace misuse {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(in_buf_, in_buf_, in_buf_);
  setp(out_buf_, out_buf_ + kBufSize);
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t n;
  do {
    // Injected EINTR: proves a signal landing mid-read only retries.
    if (MISUSEDET_FAILPOINT("socket.read")) {
      errno = EINTR;
      n = -1;
      continue;
    }
    n = ::read(fd_, in_buf_, kBufSize);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(in_buf_, in_buf_, in_buf_ + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::flush_out() {
  const char* p = pbase();
  while (p < pptr()) {
    // Injected dead peer: with SIGPIPE ignored (serve/main.cpp) a write
    // to a closed connection fails with EPIPE, which must surface as a
    // stream error, never a crash.
    if (MISUSEDET_FAILPOINT("socket.write.fail")) {
      errno = EPIPE;
      return false;
    }
    // Injected short write: cap the chunk at one byte so the partial-
    // write loop below does the reassembly.
    std::size_t chunk = static_cast<std::size_t>(pptr() - p);
    if (MISUSEDET_FAILPOINT("socket.write.short")) chunk = 1;
    ssize_t n;
    do {
      n = ::write(fd_, p, chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    p += n;
  }
  setp(out_buf_, out_buf_ + kBufSize);
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flush_out()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flush_out() ? 0 : -1; }

TcpStream::TcpStream(int fd)
    : fd_(fd),
      buf_(std::make_unique<FdStreamBuf>(fd)),
      io_(std::make_unique<std::iostream>(buf_.get())) {}

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), io_(std::move(other.io_)) {
  other.fd_ = -1;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    io_ = std::move(other.io_);
    other.fd_ = -1;
  }
  return *this;
}

void TcpStream::set_read_timeout(double seconds) {
  if (fd_ < 0 || seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void TcpStream::shutdown_write() {
  if (fd_ >= 0) {
    io_->flush();
    ::shutdown(fd_, SHUT_WR);
  }
}

void TcpStream::close() {
  if (fd_ >= 0) {
    if (io_) io_->flush();
    ::close(fd_);
    fd_ = -1;
  }
}

int TcpStream::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

TcpListener TcpListener::bind(std::uint16_t port, const std::string& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host == "localhost") {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("bind");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpListener::~TcpListener() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)), port_(other.port_) {}

std::optional<TcpStream> TcpListener::accept() {
  while (true) {
    const int listen_fd = fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return std::nullopt;
    // Injected transient accept failure (EINTR path: loop and retry).
    if (MISUSEDET_FAILPOINT("socket.accept")) {
      errno = EINTR;
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream(fd);
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // listener shut down (EINVAL) or fatal error
  }
}

void TcpListener::close() {
  // shutdown() unblocks a concurrent accept() on Linux, after which every
  // accept() fails with EINVAL. The fd is deliberately NOT ::close()d
  // here: releasing it while another thread sits in accept() would let
  // the kernel recycle the descriptor under that thread. The destructor
  // (which must not run concurrently with accept()) releases it.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

bool set_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

IoStatus read_some(int fd, char* buf, std::size_t cap, std::size_t& n) {
  n = 0;
  while (true) {
    // Injected EAGAIN: proves the loop parks the connection instead of
    // spinning on a socket with nothing to read.
    if (MISUSEDET_FAILPOINT("socket.nb.read")) return IoStatus::kWouldBlock;
    const ssize_t got = ::read(fd, buf, cap);
    if (got > 0) {
      n = static_cast<std::size_t>(got);
      return IoStatus::kOk;
    }
    if (got == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

IoStatus write_some(int fd, const char* buf, std::size_t len, std::size_t& n) {
  n = 0;
  if (len == 0) return IoStatus::kOk;
  // Injected full socket buffer: the caller must arm EPOLLOUT and hand
  // the cursor back to the event loop, never retry inline.
  if (MISUSEDET_FAILPOINT("socket.nb.write.block")) return IoStatus::kWouldBlock;
  // Injected short write: 1-byte chunks force the caller's cursor
  // arithmetic through every offset.
  if (MISUSEDET_FAILPOINT("socket.nb.write.short")) len = 1;
  while (true) {
    const ssize_t put = ::write(fd, buf, len);
    if (put > 0) {
      n = static_cast<std::size_t>(put);
      return IoStatus::kOk;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

TcpStream tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad connect address: " + host);
  }
  // Injected connect failure: exercises tcp_connect_retry's backoff.
  if (MISUSEDET_FAILPOINT("socket.connect")) {
    ::close(fd);
    errno = ECONNREFUSED;
    throw_errno("connect " + resolved + " (injected)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("connect " + resolved);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(fd);
}

TcpStream tcp_connect_retry(const std::string& host, std::uint16_t port,
                            const RetryConfig& retry) {
  const std::size_t attempts = std::max<std::size_t>(1, retry.attempts);
  double backoff = retry.base_delay_seconds;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return tcp_connect(host, port);
    } catch (const std::runtime_error&) {
      if (attempt + 1 >= attempts) throw;
    }
    // Full jitter: uniform in (0, backoff]. Deterministic per (seed,
    // attempt) so a replayed client waits the same schedule.
    Rng rng = Rng::stream(retry.seed, attempt);
    const double delay = rng.uniform() * std::min(backoff, retry.max_delay_seconds);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    backoff *= 2.0;
  }
}

}  // namespace misuse
