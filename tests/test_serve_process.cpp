// End-to-end process tests of the misusedet_serve binary (path baked in
// as MISUSEDET_SERVE_BIN): SIGTERM graceful drain with live TCP
// connections mid-session, the TCP front end's verdicts against pipe
// mode's (lockstep and batched reads, error records included), output
// order and idle-return verdicts independent of --batch, kill -9 crash
// recovery via --wal-dir — the recovered run's session reports must match
// an uninterrupted run's — and, for misusedet_router
// (MISUSEDET_ROUTER_BIN), every verdict to a client that half-closed or
// whose session a node evicted mid-flight, refusal of unknown flags and a
// prompt exit on SIGTERM.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "synth/portal.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"

namespace misuse::serve {
namespace {

/// This process's own directory for every file the suite writes:
/// gtest_discover_tests runs each TEST in a separate process, and under
/// `ctest -j` those run at once, so a fixed path would let one process
/// truncate or delete a model another is loading.
std::string process_dir() {
  return ::testing::TempDir() + "misusedet_proc_" + std::to_string(::getpid()) + "/";
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = process_dir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A spawned misusedet_serve (or another binary) with its three standard
/// streams piped.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_args,
                        const std::string& binary = MISUSEDET_SERVE_BIN) {
    int in_pipe[2];
    int out_pipe[2];
    int err_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
      throw std::runtime_error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      for (const int fd :
           {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]}) {
        ::close(fd);
      }
      std::vector<std::string> args = {binary};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    stderr_fd_ = err_pipe[0];
    stdout_buf_ = std::make_unique<FdStreamBuf>(stdout_fd_);
    stdout_stream_ = std::make_unique<std::istream>(stdout_buf_.get());
    stderr_buf_ = std::make_unique<FdStreamBuf>(stderr_fd_);
    stderr_stream_ = std::make_unique<std::istream>(stderr_buf_.get());
  }

  ~ServeProcess() {
    close_stdin();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
  }

  /// Writes one NDJSON line to the child's stdin (EINTR-safe full write).
  /// Returns false once the child stopped reading (EPIPE).
  bool write_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::write(stdin_fd_, framed.data() + off, framed.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void close_stdin() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  std::istream& out() { return *stdout_stream_; }
  std::istream& err() { return *stderr_stream_; }

  /// Blocks until the child logs its listening port on stderr.
  std::uint16_t wait_for_port() {
    LineReader reader(*stderr_stream_);
    std::string line;
    while (reader.next(line)) {
      const auto pos = line.find("listening on port ");
      if (pos != std::string::npos) {
        return static_cast<std::uint16_t>(
            std::stoul(line.substr(pos + std::string("listening on port ").size())));
      }
    }
    ADD_FAILURE() << "child exited before logging its port";
    return 0;
  }

  void signal(int sig) { ::kill(pid_, sig); }

  void kill_hard() {
    ::kill(pid_, SIGKILL);
    wait();
  }

  int wait() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  /// Reaps the child if it exits within `limit`; false while it still runs.
  bool wait_for(std::chrono::milliseconds limit, int& status) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (true) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int stderr_fd_ = -1;
  std::unique_ptr<FdStreamBuf> stdout_buf_;
  std::unique_ptr<std::istream> stdout_stream_;
  std::unique_ptr<FdStreamBuf> stderr_buf_;
  std::unique_ptr<std::istream> stderr_stream_;
};

class ServeProcessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The child dying mid-write must surface as a failed write, not kill
    // this test process.
    ::signal(SIGPIPE, SIG_IGN);

    synth::PortalConfig pc;
    pc.sessions = 200;
    pc.users = 30;
    pc.action_count = 50;
    pc.seed = 9;
    synth::Portal portal(pc);
    const SessionStore store = portal.generate();
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    const core::MisuseDetector detector = core::MisuseDetector::train(store, dc);

    model_path_ = new std::string(scratch_dir("model") + "/detector.bin");
    std::ofstream out(*model_path_, std::ios::binary);
    BinaryWriter writer(out);
    detector.save(writer);

    // An interleaved six-session NDJSON trace over the trained vocabulary.
    trace_ = new std::vector<std::string>();
    actions_ = new std::vector<std::string>();
    std::vector<std::vector<int>> sessions;
    for (std::size_t i = 0; i < store.size() && sessions.size() < 6; ++i) {
      if (store.at(i).length() >= 3 && store.at(i).length() <= 15) {
        sessions.push_back(store.at(i).actions);
      }
    }
    std::vector<std::size_t> cursor(sessions.size(), 0);
    double t = 0.0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (cursor[s] >= sessions[s].size()) continue;
        const std::string action = detector.vocab().name(sessions[s][cursor[s]]);
        actions_->push_back(action);
        trace_->push_back(event_line(std::string("u").append(std::to_string(s % 3)),
                                     std::string("s").append(std::to_string(s)), action, t));
        t += 1.0;
        ++cursor[s];
        progressed = true;
      }
    }
  }
  static void TearDownTestSuite() {
    delete model_path_;
    delete trace_;
    delete actions_;
    model_path_ = nullptr;
    trace_ = nullptr;
    actions_ = nullptr;
    std::filesystem::remove_all(process_dir());
  }

  static std::string event_line(const std::string& user, const std::string& session,
                                const std::string& action, double t) {
    std::ostringstream line;
    line << R"({"user_id":")" << user << R"(","session_id":")" << session
         << R"(","action":")" << action << R"(","timestamp":)" << t << "}";
    return line.str();
  }

  static std::vector<std::string> session_reports(const std::vector<std::string>& lines) {
    std::vector<std::string> reports;
    for (const auto& line : lines) {
      if (line.find("\"type\":\"session_report\"") != std::string::npos) {
        reports.push_back(line);
      }
    }
    std::sort(reports.begin(), reports.end());
    return reports;
  }

  static std::vector<std::string> step_lines(const std::vector<std::string>& lines) {
    std::vector<std::string> steps;
    std::copy_if(lines.begin(), lines.end(), std::back_inserter(steps),
                 [](const std::string& line) {
                   return line.find("\"type\":\"step\"") != std::string::npos;
                 });
    return steps;
  }

  static std::vector<std::string> drain(std::istream& in) {
    std::vector<std::string> lines;
    LineReader reader(in);
    std::string line;
    while (reader.next(line)) lines.push_back(line);
    return lines;
  }

  /// Feeds lines on a helper thread (so the child's stdout never backs up
  /// against our stdin writes), drains stdout to EOF, reaps the child.
  static std::vector<std::string> feed_and_drain(ServeProcess& proc,
                                                 const std::vector<std::string>& lines,
                                                 int& exit_status) {
    std::thread feeder([&proc, &lines] {
      for (const auto& line : lines) {
        if (!proc.write_line(line)) break;
      }
      proc.close_stdin();
    });
    const auto out = drain(proc.out());
    feeder.join();
    exit_status = proc.wait();
    return out;
  }

  /// Reference run: the whole trace through one uninterrupted pipe-mode
  /// process, no WAL. Returns every stdout line.
  static std::vector<std::string> pipe_run() {
    ServeProcess proc({"--model=" + *model_path_, "--batch=4"});
    int status = 0;
    const auto lines = feed_and_drain(proc, *trace_, status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return lines;
  }

  static std::vector<std::string> baseline_reports() { return session_reports(pipe_run()); }

  /// `proc` was started with an unknown `flag`: it exits 2 without
  /// writing to stdout, naming `key` on stderr.
  static void expect_refused(ServeProcess& proc, const std::string& flag, const std::string& key) {
    proc.close_stdin();
    const auto output = drain(proc.out());
    const int status = proc.wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << flag;
    EXPECT_TRUE(output.empty()) << flag << " wrote to stdout";
    const auto logs = drain(proc.err());
    EXPECT_TRUE(std::any_of(logs.begin(), logs.end(),
                            [&](const std::string& l) {
                              return l.find("unknown flag " + key) != std::string::npos;
                            }))
        << flag << " was not named";
  }

  static std::string* model_path_;
  static std::vector<std::string>* trace_;
  static std::vector<std::string>* actions_;
};

std::string* ServeProcessFixture::model_path_ = nullptr;
std::vector<std::string>* ServeProcessFixture::trace_ = nullptr;
std::vector<std::string>* ServeProcessFixture::actions_ = nullptr;

// SIGTERM with multiple TCP connections mid-session: every open session
// gets a session_report on stdout before the process exits cleanly.
TEST_F(ServeProcessFixture, SigtermDrainsOpenTcpSessions) {
  ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = proc.wait_for_port();
  ASSERT_GT(port, 0);

  // Two concurrent connections, two in-flight sessions each; every
  // submitted event's verdict is read back, so all events are applied
  // before the signal lands.
  std::vector<TcpStream> clients;
  clients.push_back(tcp_connect("127.0.0.1", port));
  clients.push_back(tcp_connect("127.0.0.1", port));
  double t = 0.0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      for (int k = 0; k < 2; ++k) {
        const std::string& action =
            (*actions_)[(static_cast<std::size_t>(round) * 4 + c * 2 +
                         static_cast<std::size_t>(k)) %
                        actions_->size()];
        clients[c].io() << event_line("tcp" + std::to_string(c),
                                      "conn" + std::to_string(c) + "-" + std::to_string(k),
                                      action, t)
                        << "\n";
        clients[c].io().flush();
        t += 1.0;
        std::string verdict;
        LineReader reader(clients[c].io());
        ASSERT_TRUE(reader.next(verdict)) << "no verdict for connection " << c;
        EXPECT_NE(verdict.find("\"type\":\"step\""), std::string::npos) << verdict;
      }
    }
  }

  proc.signal(SIGTERM);
  const auto lines = drain(proc.out());
  const int status = proc.wait();
  EXPECT_TRUE(WIFEXITED(status)) << "server must exit, not die on a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const auto reports = session_reports(lines);
  ASSERT_EQ(reports.size(), 4u) << "one report per open session";
  for (std::size_t c = 0; c < 2; ++c) {
    for (int k = 0; k < 2; ++k) {
      const std::string id = "conn" + std::to_string(c) + "-" + std::to_string(k);
      EXPECT_TRUE(std::any_of(reports.begin(), reports.end(),
                              [&](const std::string& r) {
                                return r.find(id) != std::string::npos;
                              }))
          << "missing report for session " << id;
    }
  }
}

// Differential lockdown of the TCP front end against pipe mode, the
// reference path: the trace, split across two TCP connections in
// lockstep, must produce pipe mode's step lines in the same order, and
// byte-equal shutdown session reports. Each line is its own read and so
// its own one-event ScoringServer::submit_batch, so any divergence is a
// framing or routing bug in the front end.
TEST_F(ServeProcessFixture, TcpFrontEndMatchesPipeModeByteForByte) {
  const auto pipe_lines = pipe_run();
  const auto pipe_steps = step_lines(pipe_lines);
  ASSERT_EQ(pipe_steps.size(), trace_->size()) << "one step verdict per event";

  ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = proc.wait_for_port();
  ASSERT_GT(port, 0);
  std::vector<TcpStream> clients;
  clients.push_back(tcp_connect("127.0.0.1", port));
  clients.push_back(tcp_connect("127.0.0.1", port));
  std::vector<std::unique_ptr<LineReader>> readers;
  for (auto& client : clients) readers.push_back(std::make_unique<LineReader>(client.io()));
  // Lockstep (send one event, read its verdict) pins the server-side
  // arrival order to the trace order pipe mode scores.
  std::vector<std::string> tcp_steps;
  for (std::size_t i = 0; i < trace_->size(); ++i) {
    const std::size_t c = i % clients.size();
    clients[c].io() << (*trace_)[i] << "\n";
    clients[c].io().flush();
    std::string verdict;
    ASSERT_TRUE(readers[c]->next(verdict)) << "no verdict for event " << i;
    tcp_steps.push_back(verdict);
  }
  for (auto& client : clients) client.shutdown_write();
  proc.signal(SIGTERM);
  const auto lines = drain(proc.out());
  const int status = proc.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(tcp_steps, pipe_steps);
  const auto reports = session_reports(lines);
  ASSERT_EQ(reports.size(), 6u) << "one shutdown report per session";
  EXPECT_EQ(reports, session_reports(pipe_lines));
}

/// Sends `lines` on a fresh connection to `port` in one write, half-closes,
/// and returns every reply up to the server's close.
std::vector<std::string> burst_replies(std::uint16_t port, const std::vector<std::string>& lines) {
  TcpStream client = tcp_connect("127.0.0.1", port);
  std::string burst;
  for (const auto& line : lines) burst += line + "\n";
  client.io() << burst << std::flush;
  client.shutdown_write();
  std::vector<std::string> replies;
  LineReader reader(client.io());
  std::string reply;
  while (reader.next(reply)) replies.push_back(reply);
  return replies;
}

// README cluster quickstart step 3: serve_replay --connect writes its
// whole trace, half-closes and reads to EOF. Through a router it must get
// one step verdict per event, in the order the same burst gets straight
// from a node — the router holds a half-closed client until the node has
// answered everything it sent.
TEST_F(ServeProcessFixture, HalfClosedClientGetsEveryVerdictThroughTheRouter) {
  ServeProcess direct_node({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t direct_port = direct_node.wait_for_port();
  ASSERT_GT(direct_port, 0);
  const auto direct = step_lines(burst_replies(direct_port, *trace_));
  ASSERT_EQ(direct.size(), trace_->size());

  ServeProcess node({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t node_port = node.wait_for_port();
  ASSERT_GT(node_port, 0);
  ServeProcess router({"--nodes=127.0.0.1:" + std::to_string(node_port), "--listen=0"},
                      MISUSEDET_ROUTER_BIN);
  const std::uint16_t port = router.wait_for_port();
  ASSERT_GT(port, 0);
  const auto routed = step_lines(burst_replies(port, *trace_));
  EXPECT_EQ(routed.size(), trace_->size()) << "verdicts lost after the client half-closed";
  EXPECT_EQ(routed, direct);
}

// The TCP front end scores each read as one batch. The whole trace in
// one burst on one connection, then a half-close, must come back as pipe
// mode's step lines in order — several events of one session inside one
// batch included.
TEST_F(ServeProcessFixture, TcpBurstMatchesPipeModeStepOrder) {
  const auto pipe_steps = step_lines(pipe_run());
  ASSERT_EQ(pipe_steps.size(), trace_->size());
  ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = proc.wait_for_port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(burst_replies(port, *trace_), pipe_steps);
  proc.signal(SIGTERM);
  (void)drain(proc.out());
  const int status = proc.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// One read that mixes every reply kind — a step, an unknown action, a
// malformed line, a step, and a second action of the first session —
// gets its replies in line order, equal to what the same lines get one
// read at a time.
TEST_F(ServeProcessFixture, MixedBatchRepliesInLineOrder) {
  const std::vector<std::string> lines = {
      event_line("mix", "a", (*actions_)[0], 1.0),
      event_line("mix", "b", "no-such-action", 2.0),
      R"({"user_id":"mix","session_id":)",
      event_line("mix", "c", (*actions_)[1], 3.0),
      event_line("mix", "a", (*actions_)[2], 4.0),
  };
  std::vector<std::string> lockstep;
  {
    ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
    const std::uint16_t port = proc.wait_for_port();
    ASSERT_GT(port, 0);
    TcpStream client = tcp_connect("127.0.0.1", port);
    LineReader reader(client.io());
    for (const auto& line : lines) {
      client.io() << line << "\n" << std::flush;
      std::string reply;
      ASSERT_TRUE(reader.next(reply)) << "no reply to " << line;
      lockstep.push_back(reply);
    }
  }
  ASSERT_EQ(lockstep.size(), lines.size());
  const char* kinds[] = {"step", "error", "error", "step", "step"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lockstep[i].find(std::string("\"type\":\"") + kinds[i] + "\""), std::string::npos)
        << lockstep[i];
  }
  ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = proc.wait_for_port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(burst_replies(port, lines), lockstep);
}

// Pipe mode scores a block of lines through the same function as a TCP
// read: two good lines, an unknown action, a malformed line and two more
// good lines get their replies in line order, byte-equal to what a TCP
// node returns for the same lines written in one burst.
TEST_F(ServeProcessFixture, PipeModeRepliesInLineOrder) {
  const std::vector<std::string> lines = {
      event_line("ord", "a", (*actions_)[0], 1.0),
      event_line("ord", "b", (*actions_)[1], 2.0),
      event_line("ord", "c", "no-such-action", 3.0),
      R"({"user_id":"ord","session_id":)",
      event_line("ord", "a", (*actions_)[2], 4.0),
      event_line("ord", "b", (*actions_)[3], 5.0),
  };
  ServeProcess pipe({"--model=" + *model_path_});
  int status = 0;
  const auto out = feed_and_drain(pipe, lines, status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // One reply per line, then a shutdown report for sessions a and b.
  ASSERT_EQ(out.size(), lines.size() + 2);
  const std::vector<std::string> replies(out.begin(),
                                         out.begin() + static_cast<long>(lines.size()));
  const char* kinds[] = {"step", "step", "error", "error", "step", "step"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(replies[i].find(std::string("\"type\":\"") + kinds[i] + "\""), std::string::npos)
        << "line " << i << ": " << replies[i];
  }
  EXPECT_EQ(session_reports(out).size(), 2u);

  ServeProcess node({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = node.wait_for_port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(burst_replies(port, lines), replies);
}

// The session table appends a capacity-eviction report just before the
// step of the event whose session open evicted it, however the stream is
// cut into batches. 300 round-robin sessions through an 8-session table
// evict on almost every event.
TEST_F(ServeProcessFixture, EvictionOrderDoesNotDependOnBatchSize) {
  constexpr int kSessions = 300;
  std::vector<std::string> trace;
  std::vector<int> cursor(kSessions, 0);
  double t = 1000.0;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int s = 0; s < kSessions; ++s) {
      if (cursor[s] >= 2 + (s * 7) % 4) continue;  // 2-5 actions each
      const int action = (s * 13 + cursor[s] * 5) % 40;
      trace.push_back(event_line(std::string("u").append(std::to_string(s)),
                                 std::string("s").append(std::to_string(s)),
                                 std::to_string(action), t));
      t += 1.0;
      ++cursor[s];
      progressed = true;
    }
  }
  const auto run = [&trace](const std::string& batch) {
    ServeProcess proc({std::string("--model=") + MISUSEDET_GOLDEN_DIR + "/detector.bin",
                       "--max-sessions=8", "--batch=" + batch});
    int status = 0;
    const auto lines = feed_and_drain(proc, trace, status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "--batch=" << batch;
    return lines;
  };
  const auto one = run("1");
  const auto many = run("256");
  EXPECT_EQ(step_lines(one).size(), trace.size());
  EXPECT_GT(std::count_if(one.begin(), one.end(),
                          [](const std::string& line) {
                            return line.find("capacity_eviction") != std::string::npos;
                          }),
            100);
  EXPECT_TRUE(one == many) << "output order depends on --batch";
}

// A session whose next event comes after --idle-ttl ends before that
// event at any batch size: at --batch=1 the sweep after the previous
// block ends it, at --batch=256 the table does when the event arrives.
// Either way the returning event opens a new session, so the step
// records are the same.
TEST_F(ServeProcessFixture, IdleReturnVerdictsDoNotDependOnBatchSize) {
  const std::vector<std::string> trace = {
      event_line("ua", "s1", "3", 0.0),    event_line("ua", "s1", "5", 1.0),
      event_line("ua", "s1", "7", 2.0),    event_line("ub", "s2", "3", 1000.0),
      event_line("ua", "s1", "9", 1001.0),
  };
  const auto run = [&trace](const std::string& batch) {
    ServeProcess proc({std::string("--model=") + MISUSEDET_GOLDEN_DIR + "/detector.bin",
                       "--batch=" + batch});
    int status = 0;
    const auto lines = feed_and_drain(proc, trace, status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "--batch=" << batch;
    return step_lines(lines);
  };
  const auto one = run("1");
  ASSERT_EQ(one.size(), trace.size());
  EXPECT_NE(one.back().find("\"step\":1,"), std::string::npos) << one.back();
  EXPECT_EQ(run("256"), one);
}

// A node's capacity-eviction report reaches the router on the upstream
// connection while the evicted session's next events are still in
// flight. Their verdicts must still reach the client: s1, s2, s1 in one
// burst to a one-session node get the same five replies (three steps,
// two eviction reports) through a router as straight from a node.
TEST_F(ServeProcessFixture, RouterDeliversVerdictsInFlightPastASessionReport) {
  const std::vector<std::string> lines = {
      event_line("r", "s1", (*actions_)[0], 1.0),
      event_line("r", "s2", (*actions_)[1], 2.0),
      event_line("r", "s1", (*actions_)[2], 3.0),
  };
  ServeProcess direct_node({"--model=" + *model_path_, "--listen=0", "--max-sessions=1"});
  const std::uint16_t direct_port = direct_node.wait_for_port();
  ASSERT_GT(direct_port, 0);
  const auto direct = burst_replies(direct_port, lines);
  ASSERT_EQ(direct.size(), 5u);
  ASSERT_EQ(step_lines(direct).size(), 3u);

  ServeProcess node({"--model=" + *model_path_, "--listen=0", "--max-sessions=1"});
  const std::uint16_t node_port = node.wait_for_port();
  ASSERT_GT(node_port, 0);
  ServeProcess router({"--nodes=127.0.0.1:" + std::to_string(node_port), "--listen=0"},
                      MISUSEDET_ROUTER_BIN);
  const std::uint16_t port = router.wait_for_port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(burst_replies(port, lines), direct);
}

// kill -9 mid-replay, restart on the same --wal-dir with --resume-replay,
// resend the stream from origin: the surviving run's session reports
// equal an uninterrupted run's.
TEST_F(ServeProcessFixture, Kill9RecoveryMatchesBaseline) {
  const auto baseline = baseline_reports();
  ASSERT_GT(baseline.size(), 0u);
  const std::string wal_dir = scratch_dir("kill9_wal");
  const std::size_t cut = trace_->size() / 2;

  {
    ServeProcess crashed({"--model=" + *model_path_, "--batch=1", "--wal-dir=" + wal_dir,
                          "--wal-sync=1"});
    LineReader reader(crashed.out());
    std::string line;
    std::size_t steps_seen = 0;
    for (std::size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(crashed.write_line((*trace_)[i]));
      // --batch=1 flushes after every event; wait for its verdict so the
      // event is known applied (and, with --wal-sync=1, fsynced).
      while (reader.next(line)) {
        if (line.find("\"type\":\"step\"") != std::string::npos) {
          ++steps_seen;
          break;
        }
      }
    }
    ASSERT_EQ(steps_seen, cut);
    crashed.kill_hard();
  }

  ServeProcess restarted({"--model=" + *model_path_, "--batch=4", "--wal-dir=" + wal_dir,
                          "--resume-replay"});
  int status = 0;
  const auto lines = feed_and_drain(restarted, *trace_, status);  // from origin
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(session_reports(lines), baseline);
}

// CliArgs folds "--no-X" into key "X" with value "false", so main must
// read negative flags through their positive name; a consumption bug
// once left --no-steps silently inert. Pin it through the real binary:
// --no-steps suppresses per-step verdicts (reports still drain). A flag
// the server (or the router) does not read, negated or not, must stop it
// before it serves: exit 2, naming the flag.
TEST_F(ServeProcessFixture, NegativeFlagsReachTheServer) {
  ServeProcess proc({"--model=" + *model_path_, "--batch=4", "--no-steps"});
  int status = 0;
  const auto lines = feed_and_drain(proc, *trace_, status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("\"type\":\"step\""), std::string::npos) << line;
  }
  EXPECT_EQ(session_reports(lines).size(), 6u) << "one report per drained session";

  // Each flag with the name the server must report.
  const std::pair<std::string, std::string> unknown_flags[] = {
      {"--no-quant", "--quant"},
      {"--quantize=int8", "--quantize"},
      {"--io=threads", "--io"},
      {"--io=epoll", "--io"},
      {"--queue-capacity=8", "--queue-capacity"},
      {"--backpressure=block", "--backpressure"},
      {"--shards=4", "--shards"},
  };
  for (const auto& [flag, key] : unknown_flags) {
    ServeProcess unknown({"--model=" + *model_path_, flag});
    expect_refused(unknown, flag, key);
  }
  // misusedet_router refuses them the same way, before it dials a node.
  const std::pair<std::string, std::string> unknown_router_flags[] = {
      {"--io=epoll", "--io"},
      {"--bogus=1", "--bogus"},
      {"--no-quota", "--quota"},
  };
  for (const auto& [flag, key] : unknown_router_flags) {
    ServeProcess unknown({"--nodes=127.0.0.1:1", "--listen=0", flag}, MISUSEDET_ROUTER_BIN);
    expect_refused(unknown, flag, key);
  }
}

// EOF drain without --metrics-out: the final metrics snapshot must still
// surface, logged at INFO on stderr, so operators of bare deployments
// (no scrape file, no admin port) get the run's counters post-mortem.
TEST_F(ServeProcessFixture, DrainLogsFinalMetricsSnapshotWithoutMetricsOut) {
  ServeProcess proc({"--model=" + *model_path_, "--batch=4"});
  int status = 0;
  (void)feed_and_drain(proc, *trace_, status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const auto logs = drain(proc.err());
  const auto snapshot = std::find_if(logs.begin(), logs.end(), [](const std::string& l) {
    return l.find("final metrics snapshot: ") != std::string::npos;
  });
  ASSERT_NE(snapshot, logs.end()) << "no final snapshot logged on EOF drain";
  EXPECT_NE(snapshot->find("\"serve.steps\""), std::string::npos) << *snapshot;
  EXPECT_NE(snapshot->find("\"serve.sessions_finished\""), std::string::npos) << *snapshot;
}

// misusedet_router stops from its signal handler: with one node behind
// it, SIGTERM ends it with exit 0 within 2 s — while it serves, and when
// the signal lands right after its "listening on port" line, before it
// has begun serving.
TEST_F(ServeProcessFixture, RouterExitsPromptlyOnSigterm) {
  ServeProcess node({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t node_port = node.wait_for_port();
  ASSERT_GT(node_port, 0);
  for (const bool serving : {false, true}) {
    ServeProcess router({"--nodes=127.0.0.1:" + std::to_string(node_port), "--listen=0"},
                        MISUSEDET_ROUTER_BIN);
    const std::uint16_t port = router.wait_for_port();
    ASSERT_GT(port, 0);
    if (serving) {
      TcpStream client = tcp_connect("127.0.0.1", port);
      client.io() << (*trace_)[0] << "\n" << std::flush;
      LineReader reader(client.io());
      std::string verdict;
      ASSERT_TRUE(reader.next(verdict));
      EXPECT_NE(verdict.find("\"type\":\"step\""), std::string::npos) << verdict;
    }
    router.signal(SIGTERM);
    int status = 0;
    ASSERT_TRUE(router.wait_for(std::chrono::seconds(2), status))
        << "router still running 2 s after SIGTERM (serving=" << serving << ")";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "serving=" << serving;
  }
}

}  // namespace
}  // namespace misuse::serve
