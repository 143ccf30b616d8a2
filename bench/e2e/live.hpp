// misusebench live run: the real misusedet_serve and misusedet_router
// processes, and the single-threaded generator that drives them over TCP.
//
// The generator is one thread polling at most three event connections
// (plus one admin connection on the durable workload). Closed-loop phases
// keep a fixed number of events in flight per connection; the paced phase
// sends on a fixed schedule and times each event from when it was due.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "traffic.hpp"

namespace misusebench {

std::int64_t now_ns();

/// CPU numbers a process or thread may run on; empty means no pinning.
using CpuSet = std::vector<int>;

/// The CPUs the live run places its processes on: the node on all but
/// the last CPU this process may use, the router and the generator on the
/// last, as if the router ran on a host of its own. Left to the scheduler,
/// the router's threads settle per run into one of two placements whose
/// CPU cost per event differs 2x, which moves every timed metric. All
/// empty when fewer than two CPUs are available.
struct CpuLayout {
  CpuSet node;
  CpuSet router;
  CpuSet all;  // every CPU the measured phases rotate over (see rotate())
};
CpuLayout split_cpus();

/// One turn of the measured phases' placement: the node moves to CPU
/// all[turn % n], and the router and the calling thread to all[(turn +
/// n/2) % n], so the two never share a CPU. On a shared host each vCPU
/// slows by up to 2x for seconds at a time, independently of the others;
/// a process left on one CPU reads that CPU's luck for the whole run,
/// while turning every tick samples every CPU in each run. No-op with
/// fewer than two CPUs.
void rotate(const CpuLayout& cpus, pid_t node, pid_t router, std::size_t turn);

/// How fast the CPUs run right now: steps per µs of a dependent
/// multiply-add chain, the best of several short timings on each CPU of
/// `cpus` (on the calling thread's own CPU when empty), averaged over the
/// CPUs. The chain touches no memory, so its rate follows the clock and
/// nothing else. Call it while the node and router are idle.
double clock_steps_per_us(const CpuSet& cpus);

/// Pins the calling thread to `cpus` for its lifetime, then restores the
/// thread's previous CPUs. No-op for an empty set.
class ThreadPin {
 public:
  explicit ThreadPin(const CpuSet& cpus);
  ~ThreadPin();
  ThreadPin(const ThreadPin&) = delete;
  ThreadPin& operator=(const ThreadPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
};

/// A spawned child with stdin and stdout on /dev/null and stderr on a
/// pipe the benchmark reads, pinned to `cpus` when given. The destructor
/// kills and reaps it.
class Child {
 public:
  Child() = default;
  explicit Child(const std::vector<std::string>& argv, const CpuSet& cpus = {});
  ~Child();
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  /// Blocks on the stderr pipe until a line containing `needle` arrives;
  /// returns the number that follows it, or throws after `timeout_s`.
  std::uint16_t read_port(const std::string& needle, double timeout_s = 60.0);
  /// Discards whatever the child has written to stderr so far (never
  /// blocks), keeping the last few lines for error messages.
  void drain_stderr();
  /// SIGTERM, then wait up to `timeout_s` (draining stderr) for a clean
  /// exit. Returns false if the child had to be killed or exited non-zero.
  bool terminate(double timeout_s);
  int stderr_fd() const { return err_fd_; }
  const std::string& stderr_tail() const { return tail_; }

 private:
  /// SIGKILL and reap (no-op once reaped).
  void kill();
  void keep(const char* data, std::size_t n);
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::string tail_;
  std::string pending_;  // read but not yet line-split (read_port)
};

/// One node behind one router, launched with the default flags plus the
/// listen/model wiring (and --wal-dir/--admin-port when durable).
struct Cluster {
  Child node;
  Child router;
  std::uint16_t port = 0;        // router client port
  std::uint16_t admin_port = 0;  // node admin port (durable only)
};
struct LaunchConfig {
  std::string serve_bin;
  std::string router_bin;
  std::string model;
  std::string wal_dir;  // empty: no WAL, no admin port
  CpuLayout cpus;
};
Cluster launch(const LaunchConfig& config);

/// Connects to 127.0.0.1:port, sends one probe event, waits for its
/// verdict. Returns false when no step verdict came back.
bool probe(std::uint16_t port, const std::string& line);

struct ProcSample {
  double cpu_s = 0.0;   // on-CPU time of all live threads
  double rss_mb = 0.0;  // VmRSS
  double hwm_mb = 0.0;  // VmHWM
};
ProcSample sample_proc(pid_t pid);

/// One event's round trip, as the generator saw it.
struct Record {
  LiveEvent event;
  std::size_t index = 0;     // position in the phase, in global order
  std::string reply;
  std::int64_t due_ns = 0;   // paced: scheduled send time; closed: send time
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;  // 0: no verdict
  bool ok = false;           // one step verdict for this session and step
};

/// The value of top-level key `key` in a verdict line (string contents or
/// number text); empty when absent.
std::string json_field(const std::string& line, const std::string& key);

class Generator {
 public:
  /// Connects kConnections event connections to the router; with an
  /// admin port, also scrapes the node's /metrics once a second. The
  /// children's stderr pipes are drained while the generator waits, and a
  /// child that exits fails the run.
  Generator(std::uint16_t router_port, std::uint16_t admin_port, std::vector<Child*> children);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Closed loop: sends the next `count` events of `traffic`, at most
  /// `window` in flight per connection, and waits for every verdict.
  std::vector<Record> closed_count(Traffic& traffic, std::size_t count, std::size_t window);
  /// Open loop: `count` events due at `rate`/s from now; returns once
  /// every verdict arrived or `grace_s` after the last was due. `on_window`
  /// runs when the first event is due and every `window_s` after it.
  std::vector<Record> paced(Traffic& traffic, std::size_t count, double rate, double grace_s,
                            double window_s, const std::function<void()>& on_window);

  struct Saturation {
    std::size_t sent = 0;
    std::size_t failed = 0;  // wrong, error or missing verdicts
    /// Verdicts read by each tick boundary, starting with 0 at the start.
    std::vector<std::size_t> answered_at;
  };
  /// Closed loop for `ticks` x `tick_s` seconds; `on_tick` runs at the
  /// start and at every tick boundary (CPU sampling).
  Saturation saturate(Traffic& traffic, std::size_t ticks, double tick_s, std::size_t window,
                      const std::function<void()>& on_tick);

  std::size_t scrapes() const { return scrapes_ok_; }
  std::size_t scrape_failures() const { return scrape_failures_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Record> inflight;
    std::deque<LiveEvent> queued;  // generated for this connection, not yet sent
  };
  /// Queues one event line on the connection and records it in flight;
  /// flush() writes what the socket takes.
  void send(Conn& conn, LiveEvent event, std::size_t index, std::int64_t due);
  void flush(Conn& conn);
  /// Closed loop: tops every connection up to `window` events in flight,
  /// generating events (global order) until `limit` have been generated.
  /// Records are indexed from `base`. Returns the number of events sent.
  std::size_t fill_windows(Traffic& traffic, std::size_t window, std::size_t limit,
                           std::size_t base);
  /// One poll round: writes pending output, reads verdicts (calling
  /// `done` per verdict), runs the scraper. Waits at most until `until`.
  void step(std::int64_t until, const std::function<void(Record&&)>& done);
  void scrape_tick(std::int64_t now);
  std::size_t inflight() const;

  std::vector<Conn> conns_;
  std::uint16_t admin_port_ = 0;
  int admin_fd_ = -1;
  bool admin_connecting_ = false;
  std::string admin_out_;
  std::int64_t next_scrape_ = 0;
  std::size_t scrapes_ok_ = 0;
  std::size_t scrape_failures_ = 0;
  std::vector<Child*> children_;
};

}  // namespace misusebench
