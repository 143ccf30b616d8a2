// Nonblocking NDJSON front end for the serving layer: one thread, one
// level-triggered epoll set, any number of connections. It is the TCP
// front end of both misusedet_serve (--listen) and misusedet_router, and
// the router dials its nodes through it too (connect()), so a node or a
// router runs all its sockets on this one thread.
//
// Cadence: each readiness report gets one read of at most 16 KiB; the
// complete lines in it go to on_lines in one call, and their replies
// are flushed before the loop returns to epoll_wait. A socket that still
// holds data is reported again once the other ready connections and
// on_tick have had their turn, so a peer sees the answer to each read
// while it sends the next, and a producer that never lets its socket
// drain cannot starve the tick. Lines queued with send() are flushed
// once per connection before the loop waits again.
//
// Framing and hardening:
//   * per-connection input buffer accumulates partial reads until a
//     complete '\n'-terminated line is available (CRLF folded to LF, as
//     LineReader does) — a slow-loris producer dripping one byte per
//     write costs memory, never a stalled thread;
//   * per-connection output buffer holds replies a congested peer has
//     not drained; writes go through util/socket write_some, so EAGAIN
//     parks the connection on EPOLLOUT instead of busy-spinning, and a
//     peer that leaves more than max_output_bytes unwritten and takes
//     no byte for a whole tick is disconnected;
//   * half-close (read EOF with a final unterminated line) delivers the
//     last line, flushes pending replies, then closes once no hold() is
//     outstanding; from the EOF on the connection waits on EPOLLOUT
//     only, because its fd stays readable (at EOF) and would otherwise
//     wake the loop in a spin;
//   * lines above max_line_bytes poison the connection (an unbounded
//     line is a protocol violation or an attack, same contract as
//     LineReader).
//
// The loop owns no scoring state: the on_lines handler decides what the
// lines of a read mean (misusedet_serve scores them as one
// ScoringServer::submit_batch; misusedet_router forwards client lines to
// nodes and node lines back to clients). See DESIGN.md "TCP front end"
// and "Cluster serving".
#pragma once

#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/socket.hpp"

namespace misuse::serve {

struct EpollConfig {
  std::uint16_t port = 0;  // 0 binds an ephemeral port (read back via port())
  std::string host = "0.0.0.0";
  /// Input framing cap, same default as LineReader: a connection whose
  /// unterminated line exceeds this is closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Output backlog cap per connection: a peer past it that takes no
  /// byte for a whole tick is disconnected (slow-consumer protection;
  /// the alternative is unbounded memory).
  std::size_t max_output_bytes = 8u << 20;
  /// on_tick and backlog-check cadence; also bounds stop-flag latency.
  double tick_seconds = 0.5;
};

struct EpollHandlers {
  /// (conn, lines, replies): the complete lines of one read, in order
  /// (terminators stripped; empty lines included). At peer EOF a final
  /// unterminated line arrives as a call of its own. Append
  /// '\n'-terminated reply lines to `replies`; they return on the same
  /// connection in call order. Required.
  std::function<void(std::uint64_t, std::span<const std::string_view>, std::string&)> on_lines;
  /// Periodic callback on the loop thread (TTL sweeps, checkpoints,
  /// registry reloads). Optional.
  std::function<void()> on_tick;
  /// Connection retired (peer EOF drained, error, overflow, close(), or
  /// shutdown), once per connection, after it left the loop. Optional.
  std::function<void(std::uint64_t conn)> on_close;
};

class EpollLoop {
 public:
  /// Binds the listener and creates the epoll set; throws
  /// std::runtime_error when either fails.
  EpollLoop(EpollConfig config, EpollHandlers handlers);
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Serves until request_stop(). On stop: pending replies get one
  /// best-effort flush, every connection is closed (on_close fires),
  /// and the listener is released. Call from one thread only. The wait
  /// takes SIGINT and SIGTERM even where the thread blocks them.
  void run();

  /// Thread-safe and async-signal-safe: wakes the loop and makes run()
  /// return.
  void request_stop();
  /// Thread-safe: true from request_stop() on, and while run() shuts
  /// down (so on_close can tell shutdown from a lost peer).
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  // The rest runs on the loop thread: in a handler, or before run().

  /// Dials host:port (a blocking connect; throws std::runtime_error) and
  /// serves the socket like an accepted one under the returned id.
  std::uint64_t connect(const std::string& host, std::uint16_t port);
  /// Queues `line` and a '\n' for `conn`, written before the loop waits
  /// again. False when the connection is unknown or retired.
  bool send(std::uint64_t conn, std::string_view line);
  /// hold() counts a reply owed to `conn` that a later send() carries;
  /// a half-closed connection stays open until release() has settled
  /// every hold (reply sent or dropped). Unknown ids are ignored.
  void hold(std::uint64_t conn);
  void release(std::uint64_t conn);
  /// Retires `conn` now, dropping its pending output (on_close fires).
  /// Not for the connection whose on_lines call is running.
  void close(std::uint64_t conn);

  /// Connections currently open (loop thread's view; racy elsewhere).
  std::size_t open_connections() const { return conns_.size(); }

  /// Lifetime counters for tests and /statusz-style introspection.
  std::uint64_t accepted_total() const { return accepted_.load(std::memory_order_relaxed); }
  std::uint64_t overflowed_total() const { return overflowed_.load(std::memory_order_relaxed); }

 private:
  struct Conn {
    int fd = -1;
    std::string in;          // unconsumed partial frame
    std::string out;         // unflushed replies
    std::size_t out_off = 0; // flushed prefix of `out`
    std::uint32_t interest = 0;  // epoll events registered for fd
    bool peer_eof = false;   // half-closed: no more input, flush then close
    bool queued = false;     // in to_flush_
    bool drained = false;    // a write succeeded since the last tick
    int unsent = INT_MAX;    // kernel send queue at the last tick, when past the cap
    std::size_t holds = 0;   // replies owed through send() (hold/release)
  };

  std::uint64_t add(int fd);  // registers an open nonblocking socket
  void accept_ready();
  /// One read, its lines through on_lines, then flush_conn.
  void conn_readable(std::uint64_t id, Conn& conn);
  /// Flushes conn.out; arms/disarms EPOLLOUT. Returns false when the
  /// connection was retired: it died, or it was half-closed and is now
  /// owed nothing.
  bool flush_conn(std::uint64_t id, Conn& conn);
  /// Per tick: retires each connection past the backlog cap that took no
  /// byte since the previous tick.
  void drop_stalled();
  /// Drops the connection, then fires on_close; `conn` dangles after.
  void retire(std::uint64_t id, Conn& conn);
  /// Flushes every connection queued by send() or release() since the
  /// last wait.
  void queue_flush(std::uint64_t id, Conn& conn);
  void flush_queued();
  /// Registers EPOLLIN (until peer EOF) plus EPOLLOUT when want_write.
  void update_interest(std::uint64_t id, Conn& conn, bool want_write);
  /// Splits the complete lines out of conn.in and hands them to on_lines
  /// in one call. Returns false when the connection was poisoned (line
  /// cap).
  bool consume_lines(std::uint64_t id, Conn& conn);

  EpollConfig config_;
  EpollHandlers handlers_;
  TcpListener listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: request_stop() wakeups
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> overflowed_{0};
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;  // loop thread only
  std::vector<std::string_view> lines_;  // consume_lines' batch (loop thread only)
  std::vector<std::uint64_t> to_flush_;  // flush_queued's worklist (loop thread only)
};

}  // namespace misuse::serve
