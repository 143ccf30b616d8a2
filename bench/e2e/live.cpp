#include "live.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace misusebench {

namespace fs = std::filesystem;

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
// A verdict stream that stays silent this long with events in flight
// means the node or router is wedged; the run fails instead of hanging.
constexpr std::int64_t kStallNs = 30 * kSecond;
constexpr std::size_t kTailBytes = 4096;
// Closed loop: how far (in events) one connection may run ahead of the
// oldest event still waiting to be sent on another. Sessions see an event
// every `slots` events and the node's idle TTL is 1800 events of event
// time, so slots + kMaxSkew stays well inside it on every workload.
constexpr std::size_t kMaxSkew = 256;

int connect_local(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0), 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      !(nonblocking && errno == EINPROGRESS)) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) + ": " + why);
  }
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

cpu_set_t to_cpu_set(const CpuSet& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

/// Exactly one step verdict for this event: same user, session and step.
bool verdict_matches(const Record& r) {
  return json_field(r.reply, "type") == "step" &&
         json_field(r.reply, "session_id") == json_field(r.event.line, "session_id") &&
         json_field(r.reply, "user_id") == json_field(r.event.line, "user_id") &&
         json_field(r.reply, "step") == std::to_string(r.event.step);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  std::size_t i = pos + needle.size();
  if (i < line.size() && line[i] == '"') {
    const auto end = line.find('"', i + 1);
    return end == std::string::npos ? std::string{} : line.substr(i + 1, end - i - 1);
  }
  const auto end = line.find_first_of(",}]", i);
  return line.substr(i, end == std::string::npos ? std::string::npos : end - i);
}

// -- CPU placement ------------------------------------------------------------

CpuLayout split_cpus() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  CpuSet cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return {};
  CpuLayout layout;
  layout.all = cpus;
  layout.router = {cpus.back()};
  cpus.pop_back();
  layout.node = std::move(cpus);
  return layout;
}

void rotate(const CpuLayout& cpus, pid_t node, pid_t router, std::size_t turn) {
  const std::size_t n = cpus.all.size();
  if (n < 2) return;
  const cpu_set_t node_set = to_cpu_set({cpus.all[turn % n]});
  const cpu_set_t router_set = to_cpu_set({cpus.all[(turn + n / 2) % n]});
  // Affinity is per thread: move every thread of each process.
  const auto pin_threads = [](pid_t pid, const cpu_set_t& set) {
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
      const auto tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
      ::sched_setaffinity(tid, sizeof(set), &set);
    }
  };
  pin_threads(node, node_set);
  pin_threads(router, router_set);
  ::sched_setaffinity(0, sizeof(router_set), &router_set);
}

ThreadPin::ThreadPin(const CpuSet& cpus) {
  if (cpus.empty() || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const cpu_set_t set = to_cpu_set(cpus);
  pinned_ = ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

ThreadPin::~ThreadPin() {
  if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

// -- Clock ------------------------------------------------------------------

namespace {

constexpr int kClockSteps = 200'000;  // ~0.3 ms a timing
constexpr int kClockTimings = 20;     // per CPU; the best one counts
volatile std::uint64_t clock_sink = 0;

double best_steps_per_us() {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int t = 0; t < kClockTimings; ++t) {
    const std::int64_t start = now_ns();
    auto x = static_cast<std::uint64_t>(t) + 1;
    for (int i = 0; i < kClockSteps; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    clock_sink = x;
    best = std::min(best, now_ns() - start);
  }
  return kClockSteps * 1e3 / static_cast<double>(std::max<std::int64_t>(best, 1));
}

}  // namespace

double clock_steps_per_us(const CpuSet& cpus) {
  if (cpus.empty()) return best_steps_per_us();
  double sum = 0.0;
  for (const int cpu : cpus) {
    const ThreadPin pin({cpu});
    sum += best_steps_per_us();
  }
  return sum / static_cast<double>(cpus.size());
}

// -- Child ------------------------------------------------------------------

Child::Child(const std::vector<std::string>& argv, const CpuSet& cpus) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  std::vector<std::string> copy = argv;
  std::vector<char*> args;
  for (auto& a : copy) args.push_back(a.data());
  args.push_back(nullptr);
  const cpu_set_t placement = to_cpu_set(cpus);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    if (!cpus.empty() && ::sched_setaffinity(0, sizeof(placement), &placement) != 0) ::_exit(126);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    ::dup2(fds[1], STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  err_fd_ = fds[0];
}

Child::~Child() {
  kill();
  if (err_fd_ >= 0) ::close(err_fd_);
}

Child::Child(Child&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      err_fd_(std::exchange(other.err_fd_, -1)),
      tail_(std::move(other.tail_)),
      pending_(std::move(other.pending_)) {}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    kill();
    if (err_fd_ >= 0) ::close(err_fd_);
    pid_ = std::exchange(other.pid_, -1);
    err_fd_ = std::exchange(other.err_fd_, -1);
    tail_ = std::move(other.tail_);
    pending_ = std::move(other.pending_);
  }
  return *this;
}

void Child::keep(const char* data, std::size_t n) {
  tail_.append(data, n);
  if (tail_.size() > 2 * kTailBytes) tail_.erase(0, tail_.size() - kTailBytes);
}

std::uint16_t Child::read_port(const std::string& needle, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    std::size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      const auto pos = line.find(needle);
      if (pos != std::string::npos) {
        return static_cast<std::uint16_t>(std::stoul(line.substr(pos + needle.size())));
      }
    }
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) throw std::runtime_error("no '" + needle + "' on stderr: " + tail_);
    pollfd p{err_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1) < 0 && errno != EINTR) {
      throw std::runtime_error("poll on child stderr failed");
    }
    if (p.revents == 0) continue;
    char buf[4096];
    const ssize_t n = ::read(err_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("child exited before '" + needle + "': " + tail_);
    keep(buf, static_cast<std::size_t>(n));
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

void Child::drain_stderr() {
  if (err_fd_ < 0) return;
  for (;;) {
    pollfd p{err_fd_, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0 || (p.revents & (POLLIN | POLLHUP)) == 0) return;
    char buf[4096];
    const ssize_t n = ::read(err_fd_, buf, sizeof(buf));
    if (n <= 0) {
      ::close(err_fd_);
      err_fd_ = -1;
      return;
    }
    keep(buf, static_cast<std::size_t>(n));
  }
}

bool Child::terminate(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  while (now_ns() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      drain_stderr();
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (err_fd_ >= 0) {
      pollfd p{err_fd_, POLLIN, 0};
      ::poll(&p, 1, 20);
      drain_stderr();
    } else {
      ::usleep(20'000);
    }
  }
  kill();
  return false;
}

void Child::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

Cluster launch(const LaunchConfig& config) {
  Cluster cluster;
  std::vector<std::string> node_args = {config.serve_bin, "--model=" + config.model, "--listen=0"};
  if (!config.wal_dir.empty()) {
    node_args.push_back("--wal-dir=" + config.wal_dir);
    node_args.push_back("--admin-port=0");
  }
  cluster.node = Child(node_args, config.cpus.node);
  // The node logs its admin port before it starts listening for events.
  if (!config.wal_dir.empty()) cluster.admin_port = cluster.node.read_port("admin endpoint on port ");
  const std::uint16_t node_port = cluster.node.read_port("listening on port ");
  cluster.router = Child({config.router_bin, "--nodes=127.0.0.1:" + std::to_string(node_port),
                          "--listen=0", "--host=127.0.0.1"},
                         config.cpus.router);
  cluster.port = cluster.router.read_port("listening on port ");
  return cluster;
}

bool probe(std::uint16_t port, const std::string& line) {
  const int fd = connect_local(port, false);
  bool ok = write_all(fd, line + "\n");
  std::string reply;
  const std::int64_t deadline = now_ns() + kStallNs;
  while (ok && reply.find('\n') == std::string::npos) {
    pollfd p{fd, POLLIN, 0};
    const std::int64_t left = deadline - now_ns();
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1) <= 0) {
      ok = false;
      break;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ok = false;
      break;
    }
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ok && json_field(reply, "type") == "step";
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const fs::path base = "/proc/" + std::to_string(pid);
  // schedstat's first field is nanoseconds on CPU, summed over threads.
  std::error_code ec;
  for (const auto& task : fs::directory_iterator(base / "task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double ns = 0.0;
    if (in >> ns) s.cpu_s += ns / 1e9;
  }
  std::ifstream status(base / "status");
  std::string line;
  while (std::getline(status, line)) {
    const auto kb = [&line] { return std::stod(line.substr(line.find(':') + 1)) / 1024.0; };
    if (line.rfind("VmRSS:", 0) == 0) s.rss_mb = kb();
    if (line.rfind("VmHWM:", 0) == 0) s.hwm_mb = kb();
  }
  return s;
}

// -- Generator --------------------------------------------------------------

Generator::Generator(std::uint16_t router_port, std::uint16_t admin_port,
                     std::vector<Child*> children)
    : conns_(kConnections), admin_port_(admin_port), children_(std::move(children)) {
  try {
    for (auto& conn : conns_) {
      conn.fd = connect_local(router_port, false);
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    }
  } catch (...) {
    for (auto& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    throw;
  }
  next_scrape_ = now_ns();
}

Generator::~Generator() {
  for (auto& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (admin_fd_ >= 0) ::close(admin_fd_);
}

std::size_t Generator::inflight() const {
  std::size_t n = 0;
  for (const auto& conn : conns_) n += conn.inflight.size();
  return n;
}

void Generator::send(Conn& conn, LiveEvent event, std::size_t index, std::int64_t due) {
  conn.out += event.line;
  conn.out += '\n';
  Record r;
  r.index = index;
  r.due_ns = due;
  r.sent_ns = now_ns();
  r.event = std::move(event);
  conn.inflight.push_back(std::move(r));
}

void Generator::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EAGAIN: the rest goes out when poll says writable
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

void Generator::scrape_tick(std::int64_t now) {
  if (admin_port_ == 0 || admin_fd_ >= 0 || now < next_scrape_) return;
  next_scrape_ = now + kSecond;
  try {
    admin_fd_ = connect_local(admin_port_, true);
    admin_connecting_ = true;
    admin_out_.clear();
  } catch (const std::exception&) {
    ++scrape_failures_;
  }
}

void Generator::step(std::int64_t until, const std::function<void(Record&&)>& done) {
  std::int64_t now = now_ns();
  scrape_tick(now);
  std::vector<pollfd> fds;
  for (const auto& conn : conns_) {
    fds.push_back({conn.fd, static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0});
  }
  const std::size_t admin_at = fds.size();
  if (admin_fd_ >= 0) fds.push_back({admin_fd_, static_cast<short>(admin_connecting_ ? POLLOUT : POLLIN), 0});
  const std::size_t children_at = fds.size();
  for (Child* child : children_) fds.push_back({child->stderr_fd(), POLLIN, 0});

  std::int64_t wait = until - now;
  if (admin_port_ != 0 && admin_fd_ < 0) wait = std::min(wait, next_scrape_ - now);
  wait = std::max<std::int64_t>(wait, 0);
  const timespec ts{static_cast<time_t>(wait / kSecond), static_cast<long>(wait % kSecond)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error("ppoll failed");
  }

  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    const short ev = fds[i].revents;
    if (ev & POLLOUT) flush(conn);
    if ((ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char buf[65536];
    bool closed = false;
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;  // EAGAIN: drained
      if (n == 0) {
        closed = true;
        break;
      }
      conn.in.append(buf, static_cast<std::size_t>(n));
    }
    now = now_ns();
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = conn.in.find('\n', start)) != std::string::npos) {
      if (conn.inflight.empty()) {
        throw std::runtime_error("verdict with no event in flight: " +
                                 conn.in.substr(start, nl - start));
      }
      Record r = std::move(conn.inflight.front());
      conn.inflight.pop_front();
      r.reply.assign(conn.in, start, nl - start);
      r.done_ns = now;
      r.ok = verdict_matches(r);
      done(std::move(r));
      start = nl + 1;
    }
    conn.in.erase(0, start);
    if (closed) throw std::runtime_error("the router closed an event connection");
  }

  if (admin_fd_ >= 0) {
    const short ev = fds[admin_at].revents;
    if (admin_connecting_ && (ev & (POLLOUT | POLLERR | POLLHUP))) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(admin_fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      admin_connecting_ = false;
      if (err != 0 || !write_all(admin_fd_, "GET /metrics HTTP/1.0\r\n\r\n")) {
        ::close(admin_fd_);
        admin_fd_ = -1;
        ++scrape_failures_;
      }
    } else if (!admin_connecting_ && (ev & (POLLIN | POLLHUP | POLLERR))) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::read(admin_fd_, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n > 0) {
          if (admin_out_.size() < 64) admin_out_.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EAGAIN) break;
        // EOF or error: the scrape is over.
        if (admin_out_.rfind("HTTP/1.0 200", 0) == 0) {
          ++scrapes_ok_;
        } else {
          ++scrape_failures_;
        }
        ::close(admin_fd_);
        admin_fd_ = -1;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (fds[children_at + i].revents == 0) continue;
    children_[i]->drain_stderr();
    if (children_[i]->stderr_fd() < 0) {
      throw std::runtime_error("a benchmarked process exited: " + children_[i]->stderr_tail());
    }
  }
}

std::size_t Generator::fill_windows(Traffic& traffic, std::size_t window, std::size_t limit,
                                    std::size_t base) {
  std::size_t sent = 0;
  for (auto& conn : conns_) {
    while (conn.inflight.size() < window) {
      while (conn.queued.empty() && traffic.events_generated() < limit) {
        LiveEvent ev = traffic.next();
        conns_[ev.conn].queued.push_back(std::move(ev));
      }
      if (conn.queued.empty()) break;
      // A connection that runs ahead of the oldest unsent event waits: the
      // node evicts sessions idle past its TTL in event time, and a session
      // on a lagging connection must not look idle.
      std::size_t oldest = traffic.events_generated();
      for (const auto& other : conns_) {
        if (!other.queued.empty()) oldest = std::min(oldest, other.queued.front().index);
      }
      if (conn.queued.front().index > oldest + kMaxSkew) break;
      const std::size_t index = conn.queued.front().index - base;
      send(conn, std::move(conn.queued.front()), index, now_ns());
      conn.queued.pop_front();
      ++sent;
    }
    flush(conn);
  }
  return sent;
}

std::vector<Record> Generator::closed_count(Traffic& traffic, std::size_t count,
                                            std::size_t window) {
  std::vector<Record> records(count);
  const std::size_t base = traffic.events_generated();
  std::size_t answered = 0;
  std::int64_t last_progress = now_ns();
  const auto done = [&](Record&& r) {
    ++answered;
    last_progress = r.done_ns;
    records[r.index] = std::move(r);
  };
  while (answered < count) {
    fill_windows(traffic, window, base + count, base);
    step(now_ns() + kSecond / 10, done);
    if (now_ns() - last_progress > kStallNs) {
      throw std::runtime_error("no verdict for " + std::to_string(kStallNs / kSecond) + " s");
    }
  }
  return records;
}

std::vector<Record> Generator::paced(Traffic& traffic, std::size_t count, double rate,
                                     double grace_s, double window_s,
                                     const std::function<void()>& on_window) {
  std::vector<Record> records(count);
  const std::int64_t t0 = now_ns() + kSecond / 100;
  const auto due = [t0, rate](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  const std::int64_t give_up = due(count) + static_cast<std::int64_t>(grace_s * 1e9);
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  std::int64_t next_window = t0;
  std::size_t next = 0;
  const auto done = [&records](Record&& r) { records[r.index] = std::move(r); };
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= next_window) {
      on_window();
      next_window += window_ns;
      now = now_ns();
    }
    while (next < count && due(next) <= now) {
      LiveEvent ev = traffic.next();
      Conn& conn = conns_[ev.conn];
      send(conn, std::move(ev), next, due(next));
      flush(conn);  // the send time is what the paced phase times
      ++next;
      now = now_ns();
    }
    if (next == count && (inflight() == 0 || now >= give_up)) break;
    step(std::min(next < count ? due(next) : give_up, next_window), done);
  }
  // Anything still in flight never got its verdict: it stays a failed
  // record (done_ns == 0), and the connection's reply stream is no longer
  // aligned, so the caller must not reuse this generator.
  for (auto& conn : conns_) {
    for (auto& r : conn.inflight) records[r.index] = std::move(r);
    conn.inflight.clear();
  }
  return records;
}

Generator::Saturation Generator::saturate(Traffic& traffic, std::size_t ticks, double tick_s,
                                          std::size_t window,
                                          const std::function<void()>& on_tick) {
  Saturation s;
  std::size_t answered = 0;
  std::int64_t last_progress = now_ns();
  const auto done = [&](Record&& r) {
    last_progress = r.done_ns;
    if (!r.ok) ++s.failed;
    ++answered;
  };
  on_tick();
  s.answered_at.push_back(0);
  const std::int64_t start = now_ns();
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    const std::int64_t boundary = start + static_cast<std::int64_t>(static_cast<double>(tick) * tick_s * 1e9);
    while (now_ns() < boundary) {
      s.sent += fill_windows(traffic, window, std::numeric_limits<std::size_t>::max(), 0);
      step(boundary, done);
      if (now_ns() - last_progress > kStallNs) break;
    }
    on_tick();
    s.answered_at.push_back(answered);
  }
  // Drain: every event sent must still get its verdict.
  while (inflight() > 0 && now_ns() - last_progress < kStallNs) {
    step(now_ns() + kSecond / 10, done);
  }
  s.failed += inflight();
  for (auto& conn : conns_) {
    conn.inflight.clear();
    conn.queued.clear();
  }
  return s;
}

}  // namespace misusebench
