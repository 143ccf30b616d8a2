// Minimal POSIX TCP helpers for the serving layer, IPv4 only: a
// listener, a blocking stream exposed as a std::iostream (via a small
// fd-backed streambuf) for clients, probes and tests, and the
// nonblocking read_some/write_some of serve/epoll_loop, the one thread
// that runs every connection of a node or a router.
#pragma once

#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>

namespace misuse {

/// std::streambuf over a file descriptor with fixed-size read/write
/// buffers. Does not own the fd.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_out();

  static constexpr std::size_t kBufSize = 1 << 14;
  int fd_;
  char in_buf_[kBufSize];
  char out_buf_[kBufSize];
};

/// An open TCP stream (accepted or connected). Owns the fd.
class TcpStream {
 public:
  explicit TcpStream(int fd);
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  std::iostream& io() { return *io_; }
  int fd() const { return fd_; }

  /// Arms SO_RCVTIMEO so blocking reads fail (stream goes bad) after
  /// `seconds` without data instead of hanging forever. Used by the
  /// admin plane so a stalled scraper cannot wedge its handler thread.
  void set_read_timeout(double seconds);

  /// Half-closes the write side so the peer sees EOF after our last byte.
  void shutdown_write();
  /// Closes the fd (subsequent io() use fails); idempotent.
  void close();
  /// Hands the fd to the caller (serve/epoll_loop adopts dialed sockets)
  /// and leaves this stream closed. Nothing was written through io().
  int release();

 private:
  int fd_ = -1;
  std::unique_ptr<FdStreamBuf> buf_;
  std::unique_ptr<std::iostream> io_;
};

/// Listening socket. `port` 0 binds an ephemeral port (read it back via
/// port()). Throws std::runtime_error on failure.
class TcpListener {
 public:
  static TcpListener bind(std::uint16_t port, const std::string& host = "0.0.0.0");
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// The listening descriptor, for callers that multiplex the accept
  /// themselves (serve/epoll_loop registers it with epoll after
  /// set_nonblocking). -1 once closed. The listener keeps ownership.
  int fd() const { return fd_.load(std::memory_order_acquire); }

  /// Blocks for the next connection; nullopt once the listener is closed
  /// (close() from another thread unblocks the accept).
  std::optional<TcpStream> accept();

  /// Shuts the listening socket down; a pending accept() unblocks and it
  /// and all future accept() calls return nullopt. Safe to call from a
  /// signal-driven shutdown path's thread while accept() is blocked —
  /// the fd itself is released only by the destructor, so a concurrent
  /// accept() can never observe a recycled descriptor.
  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

/// Connects to host:port (IPv4 dotted quad or "localhost"). Throws
/// std::runtime_error on failure.
TcpStream tcp_connect(const std::string& host, std::uint16_t port);

// -- Nonblocking primitives (serve/epoll_loop.hpp) --------------------------
//
// The epoll front end multiplexes thousands of connections on one
// thread, so its reads and writes must never block *and* never spin: a
// full socket buffer surfaces as kWouldBlock and the caller re-arms
// EPOLLOUT (or waits for EPOLLIN) instead of retrying in a loop. EINTR
// is the one transient retried here — a signal landing mid-syscall is
// not an IO event and epoll would not report one.

/// Result of one nonblocking read/write attempt.
enum class IoStatus {
  kOk,          // >= 1 byte transferred
  kWouldBlock,  // EAGAIN/EWOULDBLOCK — wait for epoll readiness, do not retry
  kEof,         // read: orderly peer shutdown (half-close)
  kError,       // fatal errno (EPIPE, ECONNRESET, ...) — close the fd
};

/// Sets/clears O_NONBLOCK. Returns false when fcntl fails.
bool set_nonblocking(int fd, bool enabled = true);

/// One read(2) attempt into buf[0..cap). EINTR retries internally;
/// EAGAIN maps to kWouldBlock (failpoint "socket.nb.read" injects it).
/// On kOk, `n` holds the byte count.
IoStatus read_some(int fd, char* buf, std::size_t cap, std::size_t& n);

/// One write(2) attempt of buf[0..len). EINTR retries internally; a
/// partial write returns kOk with `n` < len (the caller keeps its cursor
/// and waits for the next EPOLLOUT); EAGAIN maps to kWouldBlock with
/// `n` == 0. Never loops on EAGAIN — that retry belongs to epoll
/// writability, not a busy-spin (failpoints "socket.nb.write.block" and
/// "socket.nb.write.short" inject EAGAIN and 1-byte writes).
IoStatus write_some(int fd, const char* buf, std::size_t len, std::size_t& n);

/// Retry schedule for tcp_connect_retry: exponential backoff with
/// full jitter, deterministic for a given seed (Rng::stream(seed,
/// attempt) draws the jitter, so retries are reproducible and uncorrelated
/// across clients started with different seeds).
struct RetryConfig {
  std::size_t attempts = 5;          // total tries, including the first
  double base_delay_seconds = 0.05;  // delay before the second try
  double max_delay_seconds = 2.0;    // backoff cap
  std::uint64_t seed = 0;            // jitter stream
};

/// tcp_connect with retries: sleeps uniform(0, min(max, base * 2^k)]
/// between attempts. Throws the final connect error once the budget is
/// exhausted. Failpoint "socket.connect" fails an attempt for testing.
TcpStream tcp_connect_retry(const std::string& host, std::uint16_t port,
                            const RetryConfig& retry = {});

}  // namespace misuse
