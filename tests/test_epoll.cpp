// EpollLoop hardening tests: the nonblocking NDJSON front end must
// survive adversarial producers (slow-loris drips, oversized lines,
// half-closes, consumers that stop reading) and high connection churn
// without leaking a connection or stalling the loop thread, must hand
// each read's lines to the handler in one call, and must answer each
// read before it reads again. The loop-thread API the router runs on
// (connect, send, hold/release) is driven from a control connection
// whose lines are commands (start_commands). Scoring byte-identity of the
// TCP front end against pipe mode is pinned separately in
// test_serve_process.cpp; these tests exercise the loop in isolation
// with an echo handler.
#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/epoll_loop.hpp"
#include "util/failpoint.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"

namespace misuse::serve {
namespace {

using namespace std::chrono_literals;

/// Reads one line (terminator stripped) from `fd` within `limit`; false
/// on timeout, EOF or error. Bytes past the line stay in `pending`.
bool read_line_within(int fd, std::string& pending, std::string& line,
                      std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (true) {
    const std::size_t nl = pending.find('\n');
    if (nl != std::string::npos) {
      line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, static_cast<int>(left.count())) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs an EpollLoop on its own thread; the default handler echoes
/// every line back as "ack:<line>\n".
class EpollFixture : public ::testing::Test {
 protected:
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }

  void start(EpollConfig config = {}, EpollHandlers handlers = {}) {
    config.host = "127.0.0.1";
    if (!handlers.on_lines) {
      handlers.on_lines = [this](std::uint64_t conn, std::span<const std::string_view> lines,
                                 std::string& replies) {
        last_conn_.store(conn, std::memory_order_relaxed);
        for (const std::string_view line : lines) {
          lines_seen_.fetch_add(1, std::memory_order_relaxed);
          replies.append("ack:");
          replies.append(line);
          replies.push_back('\n');
        }
      };
    }
    if (!handlers.on_close) {
      handlers.on_close = [this](std::uint64_t) {
        closes_seen_.fetch_add(1, std::memory_order_relaxed);
      };
    }
    loop_ = std::make_unique<EpollLoop>(config, std::move(handlers));
    thread_ = std::thread([this] { loop_->run(); });
  }

  void TearDown() override {
    if (loop_) loop_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  TcpStream connect() { return tcp_connect("127.0.0.1", loop_->port()); }

  /// Starts the loop with a handler that runs the loop-thread API on
  /// command, so a test can drive it from a control connection:
  ///   id                  -> "id:<this connection's id>"
  ///   send:<id>:<text>    -> send(id, text): "sent" | "refused"
  ///   flood:<id>          -> send(id, 64 KiB): "sent" | "refused"
  ///   hold / release:<id> -> hold(this connection) / release(id)
  ///   connect:<port>      -> "connected:<id>" | "connect-failed"
  /// Any other line is echoed as "ack:<line>".
  void start_commands(EpollConfig config = {}) {
    EpollHandlers handlers;
    handlers.on_lines = [this](std::uint64_t conn, std::span<const std::string_view> lines,
                               std::string& replies) {
      for (const std::string_view line : lines) {
        const std::size_t colon = line.find(':');
        const std::string_view verb = line.substr(0, colon);
        const std::string_view arg = colon == std::string_view::npos ? "" : line.substr(colon + 1);
        std::string reply;
        if (line == "id") {
          reply = "id:" + std::to_string(conn);
        } else if (verb == "send") {
          const std::size_t sep = arg.find(':');
          const std::uint64_t target = std::stoull(std::string(arg.substr(0, sep)));
          reply = loop_->send(target, arg.substr(sep + 1)) ? "sent" : "refused";
        } else if (verb == "flood") {
          const std::string chunk(64 << 10, 'z');
          reply = loop_->send(std::stoull(std::string(arg)), chunk) ? "sent" : "refused";
        } else if (line == "hold") {
          loop_->hold(conn);
          reply = "held";
        } else if (verb == "release") {
          loop_->release(std::stoull(std::string(arg)));
          reply = "released";
        } else if (verb == "connect") {
          try {
            const auto port = static_cast<std::uint16_t>(std::stoul(std::string(arg)));
            reply = "connected:" + std::to_string(loop_->connect("127.0.0.1", port));
          } catch (const std::runtime_error&) {
            reply = "connect-failed";
          }
        } else {
          last_conn_.store(conn, std::memory_order_relaxed);
          reply = "ack:" + std::string(line);
        }
        replies.append(reply).push_back('\n');
      }
    };
    handlers.on_close = [this](std::uint64_t conn) {
      closed_id_.store(conn, std::memory_order_relaxed);
      closes_seen_.fetch_add(1, std::memory_order_relaxed);
    };
    start(config, std::move(handlers));
  }

  /// One command on `control`, answered on the same connection.
  static std::string command(TcpStream& control, LineReader& reader, const std::string& line) {
    control.io() << line << "\n" << std::flush;
    std::string reply;
    return reader.next(reply) ? reply : "<no reply>";
  }

  /// The loop's id for `client` (start_commands' "id" command).
  static std::uint64_t own_id(TcpStream& client) {
    LineReader reader(client.io());
    const std::string reply = command(client, reader, "id");
    return reply.rfind("id:", 0) == 0 ? std::stoull(reply.substr(3)) : 0;
  }

  /// Polls `pred` until true or the deadline passes.
  static bool eventually(const std::function<bool()>& pred, std::chrono::milliseconds limit = 5s) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(2ms);
    }
    return pred();
  }

  std::unique_ptr<EpollLoop> loop_;
  std::thread thread_;
  std::atomic<std::uint64_t> last_conn_{0};
  std::atomic<std::uint64_t> lines_seen_{0};
  std::atomic<std::uint64_t> closes_seen_{0};
  std::atomic<std::uint64_t> closed_id_{0};  // start_commands: the last retired id
};

TEST_F(EpollFixture, EchoesLinesAndFoldsCrlf) {
  start();
  TcpStream client = connect();
  client.io() << "alpha\r\n" << "beta\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:alpha");  // CRLF folded: no '\r' in the frame
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:beta");
}

TEST_F(EpollFixture, SlowLorisPartialFramesAssembleOneLine) {
  start();
  TcpStream client = connect();
  const std::string payload = "slow-loris-frame-0123456789";
  for (char ch : payload) {
    ASSERT_EQ(::write(client.fd(), &ch, 1), 1);
    std::this_thread::sleep_for(1ms);  // every byte is its own read(2) on the loop
  }
  ASSERT_EQ(::write(client.fd(), "\n", 1), 1);
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:" + payload);
  EXPECT_EQ(lines_seen_.load(), 1u);  // one frame, not one per byte
}

TEST_F(EpollFixture, HalfCloseDeliversFinalUnterminatedLine) {
  start();
  TcpStream client = connect();
  client.io() << "first\n" << "tail-no-newline";
  client.io().flush();
  client.shutdown_write();  // peer EOF with a partial frame pending
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:first");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:tail-no-newline");
  EXPECT_FALSE(reader.next(line));  // server closed after the flush
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
}

TEST_F(EpollFixture, OneReadReachesTheHandlerAsOneCall) {
  // misusedet_serve scores a read's lines as one batch, so the loop hands
  // them over together: three lines in one write are one call, and a
  // final unterminated line at EOF is a call of its own.
  struct Calls {
    std::mutex mutex;
    std::vector<std::vector<std::string>> lines;
  };
  const auto calls = std::make_shared<Calls>();
  EpollHandlers handlers;
  handlers.on_lines = [calls](std::uint64_t, std::span<const std::string_view> lines,
                              std::string& replies) {
    std::vector<std::string> copy(lines.begin(), lines.end());
    for (const std::string& line : copy) replies.append("ack:").append(line).push_back('\n');
    std::lock_guard<std::mutex> lock(calls->mutex);
    calls->lines.push_back(std::move(copy));
  };
  start({}, std::move(handlers));
  TcpStream client = connect();
  const std::string burst = "one\ntwo\r\nthree\n";
  ASSERT_EQ(::write(client.fd(), burst.data(), burst.size()), static_cast<ssize_t>(burst.size()));
  LineReader reader(client.io());
  std::string line;
  for (const char* want : {"ack:one", "ack:two", "ack:three"}) {
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, want);
  }
  ASSERT_EQ(::write(client.fd(), "tail", 4), 4);
  client.shutdown_write();
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:tail");
  EXPECT_FALSE(reader.next(line));  // closed once the final reply flushed
  const std::vector<std::vector<std::string>> want = {{"one", "two", "three"}, {"tail"}};
  std::lock_guard<std::mutex> lock(calls->mutex);
  EXPECT_EQ(calls->lines, want);
}

TEST_F(EpollFixture, OversizedLinePoisonsConnection) {
  EpollConfig config;
  config.max_line_bytes = 64;
  start(config);
  TcpStream client = connect();
  const std::string oversized(256, 'x');  // no newline: an unbounded frame
  client.io() << oversized;
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  EXPECT_FALSE(reader.next(line));  // connection dropped, nothing echoed
  EXPECT_EQ(lines_seen_.load(), 0u);
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
}

TEST_F(EpollFixture, SlowConsumerPastOutputCapIsDisconnected) {
  EpollConfig config;
  config.max_output_bytes = 32 << 10;
  EpollHandlers handlers;
  const std::string big_reply(64 << 10, 'y');
  // By value: the loop thread outlives this scope (TearDown joins it),
  // so a by-reference capture would race the local's destruction.
  handlers.on_lines = [big_reply](std::uint64_t, std::span<const std::string_view> lines,
                                  std::string& replies) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      replies.append(big_reply);
      replies.push_back('\n');
    }
  };
  start(config, std::move(handlers));
  TcpStream client = connect();
  // Never read; each request provokes a 64KB reply, so the backlog blows
  // the 32KB cap as soon as the kernel buffers fill.
  for (int i = 0; i < 256; ++i) {
    const char* req = "hit\n";
    if (::write(client.fd(), req, 4) < 0) break;  // server already hung up
    std::this_thread::sleep_for(1ms);
    if (loop_->overflowed_total() > 0) break;
  }
  EXPECT_TRUE(eventually([this] { return loop_->overflowed_total() >= 1; }));
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() >= 1; }));
}

TEST_F(EpollFixture, SentBacklogPastOutputCapIsDisconnected) {
  // Same slow-consumer contract as on_lines replies, but through send():
  // in the router every verdict reaches its client this way, and every
  // event its node, so a peer that stops reading must still hit the cap.
  EpollConfig config;
  config.max_output_bytes = 32 << 10;
  start_commands(config);
  TcpStream target = connect();
  const std::uint64_t id = own_id(target);
  TcpStream control = connect();
  LineReader control_reader(control.io());
  // The target stops reading; each flood queues 64KB for it, so once the
  // kernel socket buffer is full the backlog crosses the 32KB cap.
  for (int i = 0; i < 256 && loop_->overflowed_total() == 0; ++i) {
    if (command(control, control_reader, "flood:" + std::to_string(id)) != "sent") break;
  }
  EXPECT_TRUE(eventually([this] { return loop_->overflowed_total() >= 1; }));
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() >= 1; }));
  EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":after-retire"),
            "refused");
}

TEST_F(EpollFixture, BacklogPastTheCapSurvivesWhileThePeerDrains) {
  // A node that takes over a dead node's sessions gets their journals in
  // one burst, far past the cap, and drains it while it scores. The cap
  // cuts only a peer that took nothing for a whole tick: this reader
  // takes 32 KiB every 10 ms, too little per tick for EPOLLOUT to fire
  // (a third of the send buffer must be free), so only the shrinking
  // kernel send queue shows that it drains.
  EpollConfig config;
  config.max_output_bytes = 64 << 10;
  config.tick_seconds = 0.05;
  start_commands(config);
  TcpStream target = connect();
  const std::uint64_t id = own_id(target);
  TcpStream control = connect();
  LineReader control_reader(control.io());
  constexpr std::size_t kChunks = 96;  // 6 MiB
  for (std::size_t i = 0; i < kChunks; ++i) {
    ASSERT_EQ(command(control, control_reader, "flood:" + std::to_string(id)), "sent");
  }
  const std::size_t want = kChunks * ((64 << 10) + 1);
  std::size_t received = 0;
  std::vector<char> buf(32 << 10);
  while (received < want) {
    std::this_thread::sleep_for(10ms);
    const ssize_t n = ::read(target.fd(), buf.data(), buf.size());
    if (n <= 0) break;  // cut
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, want);
  EXPECT_EQ(loop_->overflowed_total(), 0u);
  EXPECT_EQ(closes_seen_.load(), 0u);
}

TEST_F(EpollFixture, SendRefusesUnknownAndRetiredConnections) {
  start_commands();
  TcpStream control = connect();
  LineReader control_reader(control.io());
  std::uint64_t id = 0;
  {
    TcpStream client = connect();
    id = own_id(client);
    LineReader reader(client.io());
    std::string line;
    EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":injected-1"),
              "sent");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "injected-1");
    EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id + 999) + ":nobody"),
              "refused");  // unknown connection
  }  // client gone
  ASSERT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
  EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":too-late"),
            "refused");
}

TEST_F(EpollFixture, ConnectedSocketDeliversLinesAndEof) {
  // The router dials its nodes through the loop: a connected socket's
  // lines reach on_lines under its id, send() reaches the peer, and the
  // peer's close reaches on_close.
  start_commands();
  TcpListener node = TcpListener::bind(0, "127.0.0.1");
  TcpStream control = connect();
  LineReader control_reader(control.io());
  const std::string reply = command(control, control_reader, "connect:" + std::to_string(node.port()));
  ASSERT_EQ(reply.rfind("connected:", 0), 0u) << reply;
  const std::uint64_t id = std::stoull(reply.substr(std::string("connected:").size()));
  std::optional<TcpStream> peer = node.accept();
  ASSERT_TRUE(peer.has_value());
  LineReader peer_reader(peer->io());
  std::string line;
  EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":to-node"), "sent");
  ASSERT_TRUE(peer_reader.next(line));
  EXPECT_EQ(line, "to-node");
  peer->io() << "from-node\n" << std::flush;
  ASSERT_TRUE(peer_reader.next(line));
  EXPECT_EQ(line, "ack:from-node");
  EXPECT_EQ(last_conn_.load(), id);
  peer->close();
  ASSERT_TRUE(eventually([this, id] { return closed_id_.load() == id; }));
  EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":gone"), "refused");

  const std::uint16_t dead_port = node.port();
  node.close();
  EXPECT_EQ(command(control, control_reader, "connect:" + std::to_string(dead_port)),
            "connect-failed");
}

TEST_F(EpollFixture, HeldHalfClosedConnectionWaitsForItsReplies) {
  // The router holds a half-closed client while its verdicts are still
  // in flight from a node; the connection closes once the last hold is
  // released and the replies sent before it are written.
  start_commands();
  TcpStream client = connect();
  client.set_read_timeout(5.0);  // a connection never closed fails, not hangs
  const std::uint64_t id = own_id(client);
  LineReader reader(client.io());
  std::string line;
  client.io() << "hold\n" << std::flush;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "held");
  client.shutdown_write();
  std::this_thread::sleep_for(100ms);  // the loop reads the EOF
  EXPECT_EQ(closes_seen_.load(), 0u) << "retired with a reply still owed";

  TcpStream control = connect();
  LineReader control_reader(control.io());
  EXPECT_EQ(command(control, control_reader, "send:" + std::to_string(id) + ":late"), "sent");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "late");
  EXPECT_EQ(closes_seen_.load(), 0u);
  EXPECT_EQ(command(control, control_reader, "release:" + std::to_string(id)), "released");
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }))
      << "still open with nothing owed";
  EXPECT_FALSE(reader.next(line));
}

TEST_F(EpollFixture, ConnectionChurnLeaksNothing) {
  start();
  constexpr int kSequential = 1000;
  for (int i = 0; i < kSequential; ++i) {
    TcpStream client = connect();
    client.io() << "churn-" << i << "\n";
    client.io().flush();
    LineReader reader(client.io());
    std::string line;
    ASSERT_TRUE(reader.next(line)) << "connection " << i;
    ASSERT_EQ(line, "ack:churn-" + std::to_string(i));
  }
  // A burst of concurrent connections on top of the sequential churn.
  constexpr int kConcurrent = 50;
  std::vector<std::thread> workers;
  std::atomic<int> ok{0};
  workers.reserve(kConcurrent);
  for (int i = 0; i < kConcurrent; ++i) {
    workers.emplace_back([this, i, &ok] {
      TcpStream client = connect();
      client.io() << "burst-" << i << "\n";
      client.io().flush();
      LineReader reader(client.io());
      std::string line;
      if (reader.next(line) && line == "ack:burst-" + std::to_string(i)) ok.fetch_add(1);
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(ok.load(), kConcurrent);
  EXPECT_EQ(loop_->accepted_total(), static_cast<std::uint64_t>(kSequential + kConcurrent));
  EXPECT_TRUE(eventually([this] {
    return closes_seen_.load() == static_cast<std::uint64_t>(kSequential + kConcurrent);
  }));
  EXPECT_EQ(lines_seen_.load(), static_cast<std::uint64_t>(kSequential + kConcurrent));
}

TEST_F(EpollFixture, TwoConnectionsInterleaveIndependently) {
  start();
  TcpStream a = connect();
  TcpStream b = connect();
  LineReader reader_a(a.io());
  LineReader reader_b(b.io());
  std::string line;
  for (int round = 0; round < 20; ++round) {
    a.io() << "a-" << round << "\n";
    a.io().flush();
    b.io() << "b-" << round << "\n";
    b.io().flush();
    ASSERT_TRUE(reader_b.next(line));  // read b first: replies are per-connection
    EXPECT_EQ(line, "ack:b-" + std::to_string(round));
    ASSERT_TRUE(reader_a.next(line));
    EXPECT_EQ(line, "ack:a-" + std::to_string(round));
  }
}

TEST_F(EpollFixture, AnswersEachReadBeforeReadingTheNext) {
  // Line 2 is written only while line 1's handler runs, so it arrives in
  // a later read; its handler then waits until the client holds reply 1.
  // A loop that reads to EAGAIN before it flushes runs handler 2 with
  // reply 1 still buffered, and the client waits in vain.
  struct Cadence {
    std::atomic<bool> line1_running{false};
    std::atomic<bool> line2_sent{false};
    std::atomic<bool> reply1_held{false};
  };
  // Shared, not by reference: a failed assertion returns while the loop
  // thread may still be inside a handler.
  const auto cadence = std::make_shared<Cadence>();
  EpollHandlers handlers;
  handlers.on_lines = [cadence](std::uint64_t, std::span<const std::string_view> lines,
                                std::string& replies) {
    for (const std::string_view line : lines) {
      if (line == "one") {
        cadence->line1_running.store(true);
        eventually([&] { return cadence->line2_sent.load(); });
        std::this_thread::sleep_for(20ms);  // line 2 reaches the socket buffer
      } else {
        eventually([&] { return cadence->reply1_held.load(); }, 3s);
      }
      replies.append("ack:").append(line).push_back('\n');
    }
  };
  start({}, std::move(handlers));
  TcpStream client = connect();
  client.io() << "one\n" << std::flush;
  ASSERT_TRUE(eventually([&] { return cadence->line1_running.load(); }));
  client.io() << "two\n" << std::flush;
  cadence->line2_sent.store(true);
  std::string pending;
  std::string line;
  ASSERT_TRUE(read_line_within(client.fd(), pending, line, 2s))
      << "reply 1 was held back until line 2 had been handled";
  EXPECT_EQ(line, "ack:one");
  cadence->reply1_held.store(true);
  ASSERT_TRUE(read_line_within(client.fd(), pending, line, 5s));
  EXPECT_EQ(line, "ack:two");
}

TEST_F(EpollFixture, TicksFireWhileAProducerKeepsTheSocketReadable) {
  // The writer outpaces the handler, so the socket holds data from the
  // first line to the last. on_tick must still run meanwhile: it is
  // where misusedet_serve sweeps idle sessions.
  constexpr int kLines = 4000;
  struct Progress {
    std::atomic<int> lines{0};
    std::atomic<int> ticks_between{0};  // ticks after the first line, before the last
  };
  const auto progress = std::make_shared<Progress>();
  EpollConfig config;
  config.tick_seconds = 0.05;
  EpollHandlers handlers;
  handlers.on_lines = [progress](std::uint64_t, std::span<const std::string_view> lines,
                                 std::string&) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::this_thread::sleep_for(100us);
      progress->lines.fetch_add(1);
    }
  };
  handlers.on_tick = [progress] {
    const int seen = progress->lines.load();
    if (seen > 0 && seen < kLines) progress->ticks_between.fetch_add(1);
  };
  start(config, std::move(handlers));
  TcpStream client = connect();
  std::thread writer([&client] {
    const std::string line = std::string(63, 'w') + "\n";
    for (int i = 0; i < kLines; ++i) client.io() << line;
    client.io().flush();
  });
  writer.join();
  ASSERT_TRUE(eventually([&] { return progress->lines.load() == kLines; }, 30s));
  // At least 0.4 s of handler time between the first and the last line.
  EXPECT_GE(progress->ticks_between.load(), 3);
}

TEST_F(EpollFixture, HalfClosedPeerThatDoesNotReadCostsNoCpu) {
  // The peer half-closes, then leaves a large reply unread. Its fd stays
  // readable (at EOF) while the reply waits on writability; the loop
  // must sleep on EPOLLOUT rather than re-read the EOF in a spin.
  constexpr std::size_t kReply = 64u << 20;
  EpollConfig config;
  config.max_output_bytes = 2 * kReply;
  EpollHandlers handlers;
  handlers.on_lines = [this](std::uint64_t, std::span<const std::string_view> lines,
                             std::string& replies) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      replies.append(kReply, 'r');
      replies.push_back('\n');
      lines_seen_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  start(config, std::move(handlers));
  TcpStream client = connect();
  client.io() << "big\n" << std::flush;
  client.shutdown_write();
  ASSERT_TRUE(eventually([this] { return lines_seen_.load() == 1; }));
  std::this_thread::sleep_for(100ms);  // the loop reads the EOF and parks
  clockid_t clock{};
  ASSERT_EQ(::pthread_getcpuclockid(thread_.native_handle(), &clock), 0);
  const double before = cpu_seconds(clock);
  std::this_thread::sleep_for(500ms);
  EXPECT_LT(cpu_seconds(clock) - before, 0.1)
      << "the loop thread spun while the reply waited on a half-closed peer";

  std::size_t received = 0;
  bool intact = true;
  std::vector<char> buf(1 << 16);
  while (true) {
    const ssize_t n = ::read(client.fd(), buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF once the reply is flushed
    for (ssize_t i = 0; i < n; ++i) {
      const char want = received + static_cast<std::size_t>(i) < kReply ? 'r' : '\n';
      intact = intact && buf[static_cast<std::size_t>(i)] == want;
    }
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, kReply + 1);
  EXPECT_TRUE(intact);
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(closes_seen_.load(), 1u);
}

TEST_F(EpollFixture, EchoSurvivesInjectedEagainAndShortWrites) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  failpoints::configure(
      "socket.nb.read=every:2;socket.nb.write.short=every:2;socket.nb.write.block=every:3");
  struct ClearFailpoints {
    ~ClearFailpoints() { failpoints::clear(); }
  } clear_failpoints;
  start();
  TcpStream client = connect();
  LineReader reader(client.io());
  std::string line;
  // One line per round trip, so every line is its own read and every
  // reply its own flush: each site is evaluated about 200 times.
  constexpr int kLines = 200;
  for (int i = 0; i < kLines; ++i) {
    client.io() << "line-" << i << "\n" << std::flush;
    ASSERT_TRUE(reader.next(line)) << "reply " << i;
    ASSERT_EQ(line, "ack:line-" + std::to_string(i));
  }
  EXPECT_EQ(lines_seen_.load(), static_cast<std::uint64_t>(kLines));
  EXPECT_GT(failpoints::triggered("socket.nb.read"), 0u);
  EXPECT_GT(failpoints::triggered("socket.nb.write.short"), 0u);
  EXPECT_GT(failpoints::triggered("socket.nb.write.block"), 0u);
}

TEST_F(EpollFixture, StopFlushesAndClosesEverything) {
  start();
  TcpStream client = connect();
  client.io() << "pre-stop\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  loop_->request_stop();
  thread_.join();
  EXPECT_FALSE(reader.next(line));  // server side closed
  EXPECT_EQ(closes_seen_.load(), 1u);
  EXPECT_EQ(loop_->open_connections(), 0u);  // loop retired everything
}

}  // namespace
}  // namespace misuse::serve
