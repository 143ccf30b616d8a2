// Router-tier tests. The pure pieces (consistent-hash ring, token-bucket
// quotas, endpoint parsing) are pinned exactly; the Router itself is
// driven end-to-end against in-process fake nodes that answer each
// forwarded event with a step record naming the node — enough to prove
// session affinity, quota rejection at the front door, and failure
// handoff (replay to the survivor, no verdict lost or duplicated) for
// each way a node goes down: its connection closes, its /healthz fails
// (a fake admin port), or it stops reading past the backlog cap.
// Byte-exactness of a real cluster against a single node is covered by
// scripts/cluster_smoke.sh and the bench --cluster leg.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/quota.hpp"
#include "router/router.hpp"
#include "serve/event.hpp"
#include "util/line_io.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace misuse::router {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Ring hash: pin the standard FNV-1a 64-bit test vectors on
// serve::session_shard_hash, which the ring hashes node names and session
// keys with, so placement can never silently change hash functions.

TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(serve::session_shard_hash(""), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(serve::session_shard_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(serve::session_shard_hash("foobar"), 0x85944171f73967e8ULL);
}

// ---------------------------------------------------------------------------
// HashRing

std::vector<std::string> sample_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  // std::string left operand: the const char* + string&& overload trips a
  // GCC 12 -Wrestrict false positive through basic_string::insert.
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(std::string("u") + std::to_string(i) + "\x1fs0");
  }
  return keys;
}

TEST(HashRing, OwnershipIsPureFunctionOfNodeSet) {
  // Same final node set reached through different operation orders must
  // give identical ownership for every key.
  HashRing first(64);
  first.add_node("node-a");
  first.add_node("node-b");
  first.add_node("node-c");

  HashRing second(64);
  second.add_node("node-c");
  second.add_node("node-d");
  second.add_node("node-a");
  second.add_node("node-b");
  second.remove_node("node-d");

  for (const std::string& key : sample_keys(500)) {
    const std::string* lhs = first.owner_of(key);
    const std::string* rhs = second.owner_of(key);
    ASSERT_NE(lhs, nullptr);
    ASSERT_NE(rhs, nullptr);
    EXPECT_EQ(*lhs, *rhs) << "key " << key;
  }
}

TEST(HashRing, RemovalRemapsOnlyTheRemovedNodesKeys) {
  HashRing ring(64);
  ring.add_node("node-a");
  ring.add_node("node-b");
  ring.add_node("node-c");
  const std::vector<std::string> keys = sample_keys(600);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = *ring.owner_of(key);

  ring.remove_node("node-b");
  for (const std::string& key : keys) {
    const std::string& now = *ring.owner_of(key);
    if (before[key] == "node-b") {
      EXPECT_NE(now, "node-b");  // fell to a clockwise survivor
    } else {
      EXPECT_EQ(now, before[key]) << "survivor's key moved: " << key;
    }
  }
}

TEST(HashRing, AdditionStealsKeysOnlyForTheNewNode) {
  HashRing ring(64);
  ring.add_node("node-a");
  ring.add_node("node-b");
  const std::vector<std::string> keys = sample_keys(600);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = *ring.owner_of(key);

  ring.add_node("node-c");
  std::size_t moved = 0;
  for (const std::string& key : keys) {
    const std::string& now = *ring.owner_of(key);
    if (now != before[key]) {
      EXPECT_EQ(now, "node-c") << "key moved between old nodes: " << key;
      ++moved;
    }
  }
  // The newcomer takes roughly 1/3 of the keyspace; anything from a few
  // percent up is proof it joined, anything near 100% would mean the
  // ring reshuffled wholesale.
  EXPECT_GT(moved, keys.size() / 10);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(HashRing, VirtualNodesBalanceLoad) {
  HashRing ring(64);
  ring.add_node("node-a");
  ring.add_node("node-b");
  ring.add_node("node-c");
  std::map<std::string, std::size_t> share;
  const std::vector<std::string> keys = sample_keys(3000);
  for (const std::string& key : keys) share[*ring.owner_of(key)] += 1;
  ASSERT_EQ(share.size(), 3u);  // every node owns something
  for (const auto& [node, count] : share) {
    // Expected 1000 +- O(1/sqrt(64)); allow a wide deterministic band.
    EXPECT_GT(count, 500u) << node;
    EXPECT_LT(count, 1700u) << node;
  }
}

// Sequential session ids differ only in their last bytes, which FNV-1a
// alone barely moves: without mixing, one of three nodes took more than
// half of u<i%3>/s<i> (i < 256) for most port triples. Mixed, no node
// should own more than half, for any of 1,000 seeded random triples.
TEST(HashRing, SequentialSessionsSpreadOverNodes) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 256; ++i) {
    keys.push_back(serve::session_key(std::string("u").append(std::to_string(i % 3)),
                                      std::string("s").append(std::to_string(i))));
  }
  Rng rng(20261019);
  for (std::size_t trial = 0; trial < 1000; ++trial) {
    HashRing ring(64);
    while (ring.node_count() < 3) {
      ring.add_node("127.0.0.1:" + std::to_string(rng.uniform_int(1024, 65535)));
    }
    std::map<std::string, std::size_t> share;
    for (const std::string& key : keys) share[*ring.owner_of(key)] += 1;
    for (const auto& [node, count] : share) {
      ASSERT_LE(count, keys.size() / 2) << node << " in trial " << trial;
    }
  }
}

TEST(HashRing, EmptyRingAndNoOpMutations) {
  HashRing ring(8);
  EXPECT_EQ(ring.owner_of("anything"), nullptr);
  ring.remove_node("ghost");  // absent: no-op
  EXPECT_EQ(ring.node_count(), 0u);
  ring.add_node("only");
  ring.add_node("only");  // duplicate: no-op
  EXPECT_EQ(ring.node_count(), 1u);
  EXPECT_EQ(*ring.owner_of("anything"), "only");
  ring.remove_node("only");
  EXPECT_EQ(ring.owner_of("anything"), nullptr);
}

// ---------------------------------------------------------------------------
// parse_node_endpoint

TEST(ParseNodeEndpoint, AcceptsScoringAndAdminForms) {
  const auto plain = parse_node_endpoint("10.0.0.5:9000");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->host, "10.0.0.5");
  EXPECT_EQ(plain->port, 9000);
  EXPECT_EQ(plain->admin_port, 0);
  EXPECT_EQ(plain->name(), "10.0.0.5:9000");

  const auto with_admin = parse_node_endpoint("localhost:7000:7100");
  ASSERT_TRUE(with_admin.has_value());
  EXPECT_EQ(with_admin->host, "localhost");
  EXPECT_EQ(with_admin->port, 7000);
  EXPECT_EQ(with_admin->admin_port, 7100);
}

TEST(ParseNodeEndpoint, RejectsMalformedSpecs) {
  for (const char* bad : {"", "hostonly", ":9000", "h:", "h:0", "h:70000", "h:nope", "h:9000:0",
                          "h:9000:70000", "h:9000:nan"}) {
    EXPECT_FALSE(parse_node_endpoint(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// TenantQuotas

TEST(TenantQuotas, DisabledQuotasAdmitEverything) {
  TenantQuotas quotas(QuotaConfig{0.0, 0.0});
  EXPECT_FALSE(quotas.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_EQ(quotas.tenants(), 0u);  // no bucket state kept
}

TEST(TenantQuotas, BurstBoundsTheInitialBucket) {
  TenantQuotas quotas(QuotaConfig{1.0, 2.0});
  EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_FALSE(quotas.admit("u0", 0.0));  // bucket empty
}

TEST(TenantQuotas, RefillsAtRateAndCapsAtBurst) {
  TenantQuotas quotas(QuotaConfig{1.0, 2.0});
  EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_FALSE(quotas.admit("u0", 0.5));   // 0.5 tokens back: still short
  EXPECT_TRUE(quotas.admit("u0", 1.6));    // 1.1 more: one full token
  EXPECT_FALSE(quotas.admit("u0", 1.6));
  // Long idle refills to burst, never beyond it.
  EXPECT_TRUE(quotas.admit("u0", 1000.0));
  EXPECT_TRUE(quotas.admit("u0", 1000.0));
  EXPECT_FALSE(quotas.admit("u0", 1000.0));
}

TEST(TenantQuotas, BackwardsTimeNeverRefills) {
  TenantQuotas quotas(QuotaConfig{1.0, 2.0});
  EXPECT_TRUE(quotas.admit("u0", 10.0));
  EXPECT_TRUE(quotas.admit("u0", 10.0));
  EXPECT_FALSE(quotas.admit("u0", 5.0));   // clock went backwards: no refill
  EXPECT_FALSE(quotas.admit("u0", 10.5));  // refill measured from t=10, not t=5
  EXPECT_TRUE(quotas.admit("u0", 11.5));
}

TEST(TenantQuotas, TenantsAreIndependent) {
  TenantQuotas quotas(QuotaConfig{1.0, 1.0});
  EXPECT_TRUE(quotas.admit("u0", 0.0));
  EXPECT_FALSE(quotas.admit("u0", 0.0));
  EXPECT_TRUE(quotas.admit("u1", 0.0));  // fresh tenant, fresh bucket
  EXPECT_EQ(quotas.tenants(), 2u);
}

TEST(TenantQuotas, DefaultBurstIsRateWithFloorOne) {
  TenantQuotas three(QuotaConfig{3.0, 0.0});
  EXPECT_TRUE(three.admit("u0", 0.0));
  EXPECT_TRUE(three.admit("u0", 0.0));
  EXPECT_TRUE(three.admit("u0", 0.0));
  EXPECT_FALSE(three.admit("u0", 0.0));  // burst defaulted to rate = 3

  TenantQuotas slow(QuotaConfig{0.1, 0.0});
  EXPECT_TRUE(slow.admit("u0", 0.0));    // burst floors at 1 token
  EXPECT_FALSE(slow.admit("u0", 0.0));
}

TEST(TenantQuotas, ClockDomainsKeepIndependentBaselines) {
  // Producer event time (epoch-scale) and wall clock (seconds since
  // boot) are incomparable; a bucket whose baseline was set from a
  // large event stamp must still refill on later wall-clock traffic —
  // the failure mode is elapsed == 0 forever and a permanently
  // throttled tenant.
  TenantQuotas quotas(QuotaConfig{1.0, 2.0});
  EXPECT_TRUE(quotas.admit("u0", 1.7e9, QuotaClock::kEvent));
  EXPECT_TRUE(quotas.admit("u0", 1.7e9, QuotaClock::kEvent));
  EXPECT_FALSE(quotas.admit("u0", 1.7e9, QuotaClock::kEvent));
  // First wall reading only sets the wall baseline: no refill (the
  // event baseline says nothing about wall-elapsed time)...
  EXPECT_FALSE(quotas.admit("u0", 100.0, QuotaClock::kWall));
  // ...but one wall second later a token is back, even though wall time
  // is numerically eons behind the event stamps.
  EXPECT_TRUE(quotas.admit("u0", 101.0, QuotaClock::kWall));
  // The event-domain baseline was untouched by the wall traffic.
  EXPECT_FALSE(quotas.admit("u0", 1.7e9, QuotaClock::kEvent));
  EXPECT_TRUE(quotas.admit("u0", 1.7e9 + 1.0, QuotaClock::kEvent));
}

// ---------------------------------------------------------------------------
// Router end-to-end against fake nodes.

/// A stand-in serve node: accepts connections and answers every NDJSON
/// line with a step record that names the node, so tests can observe
/// which node served each event. stop() simulates a node crash.
class FakeNode {
 public:
  explicit FakeNode(std::string id)
      : id_(std::move(id)), listener_(TcpListener::bind(0, "127.0.0.1")) {
    accept_thread_ = std::thread([this] {
      while (auto stream = listener_.accept()) {
        std::lock_guard<std::mutex> lock(mutex_);
        conns_.push_back(std::make_unique<TcpStream>(std::move(*stream)));
        TcpStream* conn = conns_.back().get();
        workers_.emplace_back([this, conn] { serve(*conn); });
      }
    });
  }
  ~FakeNode() { stop(); }

  std::uint16_t port() const { return listener_.port(); }
  const std::string& id() const { return id_; }
  std::uint64_t lines_seen() const { return lines_seen_.load(std::memory_order_relaxed); }
  std::uint64_t replies_sent() const { return replies_sent_.load(std::memory_order_relaxed); }

  /// Wedge: stop answering after `n` total replies. Lines are still
  /// *read* (the node looks alive, it just owes verdicts), which is how
  /// a test parks replayed journal entries in flight with no reply.
  void set_reply_limit(std::uint64_t n) { reply_limit_.store(n, std::memory_order_relaxed); }

  /// Stall: stop reading altogether, with a small receive buffer, so
  /// whatever the router forwards piles up on the router's side.
  void stop_reading() {
    reading_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    const int bytes = 4096;
    for (auto& conn : conns_) ::setsockopt(conn->fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }

  /// Crash: refuse new connections, sever live ones mid-stream.
  void stop() {
    if (stopped_.exchange(true)) return;
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& conn : conns_) {
      // Raw fd-level sever: TcpStream::shutdown_write() flushes the
      // iostream, and the serve() worker owns that stream object — a
      // cross-thread flush would race its concurrent replies.
      ::shutdown(conn->fd(), SHUT_RDWR);
    }
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  void serve(TcpStream& conn) {
    LineReader reader(conn.io());
    std::string line;
    while (true) {
      while (!reading_.load(std::memory_order_relaxed) && !stopped_.load()) {
        std::this_thread::sleep_for(1ms);
      }
      if (!reader.next(line)) break;
      lines_seen_.fetch_add(1, std::memory_order_relaxed);
      std::vector<JsonField> fields;
      std::string error;
      std::string user, session;
      if (parse_flat_json(line, fields, error)) {
        user = get_string(fields, "user_id").value_or("");
        session = get_string(fields, "session_id").value_or("");
      }
      if (replies_sent_.load(std::memory_order_relaxed) >=
          reply_limit_.load(std::memory_order_relaxed)) {
        continue;  // wedged: consume the line, owe the verdict
      }
      replies_sent_.fetch_add(1, std::memory_order_relaxed);
      conn.io() << "{\"type\":\"step\",\"node\":\"" << id_ << "\",\"user_id\":\"" << user
                << "\",\"session_id\":\"" << session << "\"}\n";
      conn.io().flush();
    }
  }

  std::string id_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TcpStream>> conns_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> lines_seen_{0};
  std::atomic<std::uint64_t> replies_sent_{0};
  std::atomic<std::uint64_t> reply_limit_{UINT64_MAX};
  std::atomic<bool> reading_{true};
};

/// A stand-in admin port: answers every GET /healthz with 200 or, once
/// set_healthy(false), 503, and counts the answers of each kind.
class FakeHealthz {
 public:
  FakeHealthz() : listener_(TcpListener::bind(0, "127.0.0.1")) {
    thread_ = std::thread([this] {
      while (auto probe = listener_.accept()) {
        // Read the whole request first: closing on unread bytes would
        // reset the connection under the prober's read.
        std::string header;
        while (std::getline(probe->io(), header) && header != "\r" && !header.empty()) {
        }
        const bool healthy = healthy_.load();
        probe->io() << (healthy ? "HTTP/1.1 200 OK" : "HTTP/1.1 503 Service Unavailable")
                    << "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                    << std::flush;
        (healthy ? ok_ : failed_).fetch_add(1);
      }
    });
  }
  ~FakeHealthz() {
    listener_.close();
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }
  void set_healthy(bool healthy) { healthy_.store(healthy); }
  std::uint64_t ok() const { return ok_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> healthy_{true};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> failed_{0};
};

bool eventually(const std::function<bool()>& pred, std::chrono::milliseconds limit = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

class RouterClient {
 public:
  explicit RouterClient(std::uint16_t port)
      : stream_(tcp_connect("127.0.0.1", port)), reader_(stream_.io()) {}

  /// Bounds next_reply(): a verdict the router never delivers surfaces
  /// as a failed read instead of hanging the test.
  void set_read_timeout(double seconds) { stream_.set_read_timeout(seconds); }

  void send_event(const std::string& user, const std::string& session, double timestamp) {
    stream_.io() << "{\"user_id\":\"" << user << "\",\"session_id\":\"" << session
                 << "\",\"action\":\"login\",\"timestamp\":" << timestamp << "}\n";
    stream_.io().flush();
  }

  void send_raw(const std::string& line) {
    stream_.io() << line << "\n";
    stream_.io().flush();
  }

  /// Next reply, parsed. Returns false on EOF.
  bool next_reply(std::string& type, std::string& node) {
    std::string line;
    if (!reader_.next(line)) return false;
    std::vector<JsonField> fields;
    std::string error;
    if (!parse_flat_json(line, fields, error)) return false;
    type = get_string(fields, "type").value_or("");
    node = get_string(fields, "node").value_or("");
    return true;
  }

 private:
  TcpStream stream_;
  LineReader reader_;
};

struct RouterRunner {
  explicit RouterRunner(RouterConfig config) : router(std::move(config)) {
    thread = std::thread([this] { router.run(); });
  }
  ~RouterRunner() {
    router.request_stop();
    thread.join();
  }
  Router router;
  std::thread thread;
};

TEST(RouterCluster, SessionAffinityAndFailureHandoff) {
  std::signal(SIGPIPE, SIG_IGN);
  FakeNode node_a("A");
  FakeNode node_b("B");
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node_a.port(), 0},
                  NodeEndpoint{"127.0.0.1", node_b.port(), 0}};
  config.tick_seconds = 0.05;
  RouterRunner runner(std::move(config));
  EXPECT_EQ(runner.router.live_nodes(), 2u);

  RouterClient client(runner.router.port());
  constexpr int kSessions = 16;
  constexpr int kStepsBefore = 3;
  std::map<std::string, std::string> owner;  // session -> fake node id
  for (int step = 0; step < kStepsBefore; ++step) {
    for (int s = 0; s < kSessions; ++s) {
      const std::string session = "s" + std::to_string(s);
      client.send_event("u" + std::to_string(s % 3), session, step);
      std::string type, node;
      ASSERT_TRUE(client.next_reply(type, node));
      ASSERT_EQ(type, "step");
      ASSERT_FALSE(node.empty());
      const auto [it, inserted] = owner.emplace(session, node);
      // Session affinity: every event of a session answers from one node.
      if (!inserted) {
        ASSERT_EQ(it->second, node) << "session " << session << " moved nodes";
      }
    }
  }
  EXPECT_EQ(runner.router.active_sessions(), static_cast<std::size_t>(kSessions));

  // Crash the node that owns session s0 (guarantees the dead node holds
  // at least one session) and count what the survivor must inherit.
  FakeNode& dead = owner.at("s0") == "A" ? node_a : node_b;
  FakeNode& survivor = owner.at("s0") == "A" ? node_b : node_a;
  std::size_t dead_sessions = 0;
  for (const auto& [session, node] : owner) dead_sessions += (node == dead.id()) ? 1 : 0;
  const std::uint64_t survivor_before = survivor.lines_seen();

  dead.stop();
  ASSERT_TRUE(eventually([&] { return runner.router.live_nodes() == 1; }));
  // Handoff replays every journaled event of the dead node's sessions to
  // the survivor; the client saw those verdicts already, so nothing new
  // arrives on the client socket (checked below by lockstep reads).
  ASSERT_TRUE(eventually([&] {
    return survivor.lines_seen() >= survivor_before + dead_sessions * kStepsBefore;
  }));

  // Every session keeps flowing, now answered by the survivor — exactly
  // one verdict per event, so no replayed verdict was duplicated to the
  // client and none of the new ones was lost.
  for (int s = 0; s < kSessions; ++s) {
    client.send_event("u" + std::to_string(s % 3), "s" + std::to_string(s), kStepsBefore);
    std::string type, node;
    ASSERT_TRUE(client.next_reply(type, node));
    EXPECT_EQ(type, "step");
    EXPECT_EQ(node, survivor.id()) << "session s" << s;
  }
  // The survivor processed its own pre-crash events, the replayed
  // journal, and every post-crash event.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kSessions - dead_sessions) * kStepsBefore +
      static_cast<std::uint64_t>(dead_sessions) * kStepsBefore + kSessions;
  ASSERT_TRUE(eventually([&] { return survivor.lines_seen() == expected; }));
}

TEST(RouterCluster, CascadingFailureMidReplayLosesNoVerdict) {
  std::signal(SIGPIPE, SIG_IGN);
  // The cascade the single-failure test cannot see: a session with an
  // undelivered verdict is handed off, the successor answers only the
  // *suppressed* prefix of the replay, then dies mid-replay. `confirmed`
  // must still equal the client-visible prefix at the second handoff —
  // counting suppressed replies as deliveries would inflate it and the
  // third node's replay would suppress a verdict the client never saw.
  FakeNode node_a("A");
  FakeNode node_b("B");
  FakeNode node_c("C");
  std::map<std::string, FakeNode*> nodes = {
      {"A", &node_a}, {"B", &node_b}, {"C", &node_c}};
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node_a.port(), 0},
                  NodeEndpoint{"127.0.0.1", node_b.port(), 0},
                  NodeEndpoint{"127.0.0.1", node_c.port(), 0}};
  config.tick_seconds = 0.05;
  RouterRunner runner(std::move(config));
  ASSERT_EQ(runner.router.live_nodes(), 3u);

  RouterClient client(runner.router.port());
  client.set_read_timeout(5.0);
  const std::uint64_t suppressed_before = router_metrics().replay_suppressed.value();

  // Two delivered verdicts: the client-visible prefix is 2.
  std::string type, node_id;
  client.send_event("u0", "s0", 0.0);
  ASSERT_TRUE(client.next_reply(type, node_id));
  ASSERT_EQ(type, "step");
  client.send_event("u0", "s0", 1.0);
  ASSERT_TRUE(client.next_reply(type, node_id));
  ASSERT_EQ(type, "step");
  FakeNode& owner = *nodes.at(node_id);

  // Wedge the owner (keeps reading, stops answering) and send a third
  // event: the journal holds 3 entries, the client has seen 2 verdicts.
  owner.set_reply_limit(owner.replies_sent());
  client.send_event("u0", "s0", 2.0);
  ASSERT_TRUE(eventually([&] { return owner.lines_seen() == 3; }));

  // Every potential successor will answer exactly the 2-entry
  // suppressed prefix of the replay, then wedge with the fresh verdict
  // for event 3 still owed.
  for (auto& [id, fake] : nodes) {
    if (fake != &owner) fake->set_reply_limit(2);
  }
  owner.stop();  // first failure: the 3-entry journal replays
  ASSERT_TRUE(eventually([&] { return runner.router.live_nodes() == 2; }));
  FakeNode* successor = nullptr;
  ASSERT_TRUE(eventually([&] {
    for (auto& [id, fake] : nodes) {
      if (fake != &owner && fake->lines_seen() == 3) successor = fake;
    }
    return successor != nullptr;
  }));
  // Wait for the router to consume both suppressed replies — the state
  // the bug corrupts — before triggering the cascade.
  ASSERT_TRUE(eventually(
      [&] { return router_metrics().replay_suppressed.value() >= suppressed_before + 2; }));

  FakeNode* last = nullptr;
  for (auto& [id, fake] : nodes) {
    if (fake != &owner && fake != successor) last = fake;
  }
  ASSERT_NE(last, nullptr);
  last->set_reply_limit(UINT64_MAX);
  successor->stop();  // second failure, mid-replay
  ASSERT_TRUE(eventually([&] { return runner.router.live_nodes() == 1; }));

  // The surviving node's replay must deliver exactly the verdict the
  // client never saw (event 3), then the fourth event's verdict —
  // nothing lost, nothing duplicated.
  client.send_event("u0", "s0", 3.0);
  ASSERT_TRUE(client.next_reply(type, node_id)) << "verdict for event 3 was lost in the cascade";
  EXPECT_EQ(type, "step");
  EXPECT_EQ(node_id, last->id());
  ASSERT_TRUE(client.next_reply(type, node_id)) << "verdict for event 4 never arrived";
  EXPECT_EQ(type, "step");
  EXPECT_EQ(node_id, last->id());
  // Exactly 4 verdicts total reached the wire from the survivor: 2
  // suppressed replays + the fresh event-3 verdict + event 4.
  EXPECT_EQ(last->lines_seen(), 4u);
}

TEST(RouterCluster, SessionTtlMustOutliveNodeTtl) {
  FakeNode node("N");
  RouterConfig bad;
  bad.listen_host = "127.0.0.1";
  bad.nodes = {NodeEndpoint{"127.0.0.1", node.port(), 0}};
  bad.session_ttl_seconds = 300.0;
  bad.node_ttl_seconds = 900.0;  // journal would be pruned first: refuse
  EXPECT_THROW(Router{std::move(bad)}, std::runtime_error);

  RouterConfig ok;
  ok.listen_host = "127.0.0.1";
  ok.nodes = {NodeEndpoint{"127.0.0.1", node.port(), 0}};
  ok.session_ttl_seconds = 900.0;
  ok.node_ttl_seconds = 300.0;  // comfortable 3x margin
  Router router(std::move(ok));
  EXPECT_EQ(router.live_nodes(), 1u);
  router.request_stop();
}

TEST(RouterCluster, QuotaRejectsAtTheFrontDoor) {
  std::signal(SIGPIPE, SIG_IGN);
  FakeNode node("N");
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node.port(), 0}};
  config.quota.rate = 1.0;
  config.quota.burst = 2.0;
  RouterRunner runner(std::move(config));
  RouterClient client(runner.router.port());

  std::string type, dummy;
  // Burst of two admitted, third rejected with an error record the node
  // never sees (event time drives the bucket: all three stamp t=0).
  for (int i = 0; i < 2; ++i) {
    client.send_event("tenant-a", "s0", 0.0);
    ASSERT_TRUE(client.next_reply(type, dummy));
    EXPECT_EQ(type, "step");
  }
  client.send_event("tenant-a", "s0", 0.0);
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "error");

  // Two event-time seconds later one token is back...
  client.send_event("tenant-a", "s0", 2.0);
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "step");
  // ...and other tenants were never throttled.
  client.send_event("tenant-b", "s0", 0.0);
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "step");

  // Per-tenant event clocks: tenant-b jumping to a far-future stamp
  // must not advance tenant-a's refill clock (a global event clock
  // would refill every bucket here).
  client.send_event("tenant-b", "s0", 5e8);
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "step");
  client.send_event("tenant-a", "s0", 2.0);  // drains tenant-a's last token
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "step");
  client.send_event("tenant-a", "s0", 2.5);  // 0.5 event-seconds: no token yet
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "error");

  EXPECT_EQ(node.lines_seen(), 6u);  // the rejected events were never forwarded
}

TEST(RouterCluster, MalformedLinesAnswerWithErrorRecords) {
  std::signal(SIGPIPE, SIG_IGN);
  FakeNode node("N");
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node.port(), 0}};
  RouterRunner runner(std::move(config));
  RouterClient client(runner.router.port());

  std::string type, dummy;
  client.send_raw("this is not json");
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "error");
  client.send_raw("{\"user_id\":\"u0\"}");  // missing session_id/action
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "error");
  // The connection survives rejected lines.
  client.send_event("u0", "s0", 0.0);
  ASSERT_TRUE(client.next_reply(type, dummy));
  EXPECT_EQ(type, "step");
  EXPECT_EQ(node.lines_seen(), 1u);
}

/// Opens sessions (user "<i>-u", session "s") in lockstep until both
/// fake nodes own one, and returns user -> answering node id. Placement
/// follows the nodes' ephemeral ports, and sequential ids hash close
/// together on the ring, so the varying part leads the key.
std::map<std::string, std::string> spread_sessions(RouterClient& client) {
  std::map<std::string, std::string> owner;
  std::set<std::string> nodes;
  for (int i = 0; i < 256 && nodes.size() < 2; ++i) {
    const std::string user = std::to_string(i) + "-u";
    client.send_event(user, "s", 0.0);
    std::string type, node;
    if (!client.next_reply(type, node) || type != "step") return {};
    owner[user] = node;
    nodes.insert(node);
  }
  return nodes.size() == 2 ? owner : std::map<std::string, std::string>{};
}

TEST(RouterCluster, FailingHealthzDownsItsNodeAndItsSessionsMove) {
  std::signal(SIGPIPE, SIG_IGN);
  FakeNode node_a("A");
  FakeNode node_b("B");
  FakeHealthz health_a;
  FakeHealthz health_b;
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node_a.port(), health_a.port()},
                  NodeEndpoint{"127.0.0.1", node_b.port(), health_b.port()}};
  config.health_interval_seconds = 0.02;
  config.health_failures_down = 3;
  config.tick_seconds = 0.02;
  RouterRunner runner(std::move(config));
  RouterClient client(runner.router.port());
  client.set_read_timeout(5.0);
  const auto owner = spread_sessions(client);
  ASSERT_FALSE(owner.empty()) << "sessions did not reach both nodes";

  // While both admin ports answer 200, the probes keep both nodes in.
  ASSERT_TRUE(eventually([&] { return health_a.ok() >= 5 && health_b.ok() >= 5; }));
  EXPECT_EQ(runner.router.live_nodes(), 2u);

  health_a.set_healthy(false);
  ASSERT_TRUE(eventually([&] { return runner.router.live_nodes() == 1; }));
  EXPECT_GE(health_a.failed(), 3u) << "downed before health_failures_down failed probes";

  // A's sessions were handed to B; every session now answers from B.
  for (const auto& [user, node_before] : owner) {
    client.send_event(user, "s", 1.0);
    std::string type, node;
    ASSERT_TRUE(client.next_reply(type, node)) << user;
    EXPECT_EQ(type, "step");
    EXPECT_EQ(node, "B") << user << " was on " << node_before;
  }
  const std::uint64_t ok_before = health_b.ok();
  ASSERT_TRUE(eventually([&] { return health_b.ok() >= ok_before + 5; }));
  EXPECT_EQ(runner.router.live_nodes(), 1u);
}

TEST(RouterCluster, NodeThatStopsReadingIsDownedPastTheBacklogCap) {
  std::signal(SIGPIPE, SIG_IGN);
  FakeNode node_a("A");
  FakeNode node_b("B");
  std::map<std::string, FakeNode*> nodes = {{"A", &node_a}, {"B", &node_b}};
  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", node_a.port(), 0},
                  NodeEndpoint{"127.0.0.1", node_b.port(), 0}};
  RouterRunner runner(std::move(config));  // the default 0.2 s tick
  RouterClient watcher(runner.router.port());
  watcher.set_read_timeout(5.0);
  const auto owner = spread_sessions(watcher);
  ASSERT_FALSE(owner.empty()) << "sessions did not reach both nodes";
  const std::string stalled_user = owner.begin()->first;
  FakeNode& stalled = *nodes.at(owner.begin()->second);
  FakeNode& survivor = &stalled == &node_a ? node_b : node_a;
  std::string watched_user;  // a session the survivor owns
  for (const auto& [user, node] : owner) {
    if (node == survivor.id()) watched_user = user;
  }

  // The stalled node reads nothing more; a second client streams 1 KiB
  // events of one of its sessions without reading the replies. Past the
  // router's 8 MiB backlog cap, with nothing drained for a tick, the
  // node is declared down and the session's journal (more than the cap
  // by then) is replayed to the survivor, which must not be cut for it.
  stalled.stop_reading();
  std::atomic<bool> done{false};
  std::thread flood([&] {
    RouterClient producer(runner.router.port());
    const std::string pad(1000, 'x');
    for (int i = 0; i < 40000 && !done.load() && runner.router.live_nodes() == 2; ++i) {
      producer.send_raw(R"({"user_id":")" + stalled_user +
                        R"(","session_id":"s","action":"login","pad":")" + pad +
                        R"(","timestamp":1})");
    }
    while (!done.load()) std::this_thread::sleep_for(2ms);
  });
  struct Join {
    std::atomic<bool>& done;
    std::thread& flood;
    ~Join() {
      done.store(true);
      flood.join();
    }
  } join{done, flood};

  // Meanwhile the survivor's session keeps getting its verdicts.
  double t = 1.0;
  int answered = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (runner.router.live_nodes() == 2 && std::chrono::steady_clock::now() < deadline) {
    watcher.send_event(watched_user, "s", t);
    t += 1.0;
    std::string type, node;
    ASSERT_TRUE(watcher.next_reply(type, node)) << "survivor's session lost a verdict";
    EXPECT_EQ(node, survivor.id());
    ++answered;
  }
  ASSERT_EQ(runner.router.live_nodes(), 1u) << "the stalled node was never declared down";
  EXPECT_GT(answered, 0);
  for (int i = 0; i < 3; ++i) {
    watcher.send_event(watched_user, "s", t);
    t += 1.0;
    std::string type, node;
    ASSERT_TRUE(watcher.next_reply(type, node));
    EXPECT_EQ(node, survivor.id());
  }
  // The stalled session now answers from the survivor, after its replay
  // (about 10 MB of journal, which takes a while under sanitizers).
  watcher.set_read_timeout(60.0);
  watcher.send_event(stalled_user, "s", 2.0);
  std::string type, node;
  ASSERT_TRUE(watcher.next_reply(type, node)) << "lost a verdict after the handoff";
  EXPECT_EQ(node, survivor.id());
  EXPECT_EQ(runner.router.live_nodes(), 1u) << "the survivor was cut for the replay burst";
}

TEST(RouterCluster, ConstructorRequiresAReachableNode) {
  std::uint16_t dead_port;
  {
    TcpListener probe = TcpListener::bind(0, "127.0.0.1");
    dead_port = probe.port();
  }  // released: connections to dead_port now refuse

  RouterConfig config;
  config.listen_host = "127.0.0.1";
  config.nodes = {NodeEndpoint{"127.0.0.1", dead_port, 0}};
  EXPECT_THROW(Router{std::move(config)}, std::runtime_error);

  // One dead + one live node: starts with the survivor only.
  FakeNode node("N");
  RouterConfig partial;
  partial.listen_host = "127.0.0.1";
  partial.nodes = {NodeEndpoint{"127.0.0.1", dead_port, 0},
                   NodeEndpoint{"127.0.0.1", node.port(), 0}};
  Router router(std::move(partial));
  EXPECT_EQ(router.live_nodes(), 1u);
  router.request_stop();
}

}  // namespace
}  // namespace misuse::router
