// misusedet_router: the horizontal-scaling tier of the serving stack.
// Clients speak the same NDJSON event protocol as misusedet_serve; the
// router consistent-hashes each session (the mixed FNV-1a of
// user_id+session_id, router/hash_ring.hpp) onto one of N
// serve nodes, forwards the event over a pooled upstream connection,
// and routes the node's verdict lines back to the originating client.
//
// Guarantees (DESIGN.md "Cluster serving"):
//   * session affinity — every event of a session goes to one node, so
//     each per-session score stream is bit-identical to a single-node
//     deployment;
//   * in-order replies — one upstream connection per node, verdicts
//     return in submission order, attributed to sessions via an
//     in-flight FIFO (session reports self-identify and pass through; a
//     report ends the journal at the events the node has answered, so
//     verdicts still in flight for the session's next one are kept);
//   * failure handoff — a node that dies (its connection closes or
//     breaks, it stops draining past the loop's backlog cap, or /healthz
//     fails `health_failures_down` consecutive probes) is removed from
//     the ring and each of its live
//     sessions is replayed, from the router's per-session journal, to
//     the session's new owner. Scoring is deterministic, so the replay
//     reproduces the node-local state byte-exactly (the WAL-recovery
//     argument of PR 4, applied across nodes); verdicts the client
//     already saw are suppressed during replay, verdicts the dead node
//     never delivered are emitted by the new owner — no event is lost
//     and no verdict is duplicated;
//   * per-tenant quotas — token-bucket admission per user_id at the
//     router (router/quota.hpp), rejected events answered with an
//     "error" record, before the traffic reaches a node.
//
// One thread owns all of it: client and node sockets share the router's
// EpollLoop, so nothing is locked. Only the /healthz prober runs beside
// it, and it publishes just an atomic count of failed probes per node.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/quota.hpp"
#include "serve/epoll_loop.hpp"
#include "util/metrics.hpp"

namespace misuse::router {

struct NodeEndpoint {
  std::string host;
  std::uint16_t port = 0;        // NDJSON scoring port (misusedet_serve --listen)
  std::uint16_t admin_port = 0;  // /healthz probe target; 0 = no active probing
  std::string name() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" or "host:port:admin_port". Returns nullopt on
/// malformed input.
std::optional<NodeEndpoint> parse_node_endpoint(const std::string& spec);

struct RouterConfig {
  std::uint16_t listen_port = 0;  // 0 = ephemeral (read back via port())
  std::string listen_host = "0.0.0.0";
  std::vector<NodeEndpoint> nodes;
  std::size_t vnodes = 64;
  QuotaConfig quota;
  double health_interval_seconds = 1.0;
  /// Consecutive failed /healthz probes before a node is declared down.
  std::size_t health_failures_down = 3;
  /// Router-side journal TTL. Idle-evicted sessions report on the
  /// owning node's *stdout* (the operator plane), not the upstream
  /// connection, so the router cannot see them finish — it prunes its
  /// own journal map after this much idle wall time instead. Must be
  /// comfortably longer than the nodes' --idle-ttl so a handoff never
  /// loses a session the node still holds.
  double session_ttl_seconds = 900.0;
  /// The nodes' --idle-ttl, when the operator knows it (0 = unknown).
  /// The constructor rejects session_ttl_seconds <= node_ttl_seconds
  /// (the router would prune journals for sessions the node still
  /// holds, making handoff replay impossible) and warns when the margin
  /// is under 2x.
  double node_ttl_seconds = 0.0;
  double tick_seconds = 0.2;
};

/// router.* instrument bundle (util/metrics registry).
struct RouterMetrics {
  Counter& events;             // router.events — events forwarded upstream
  Counter& replies;            // router.replies — verdict lines routed to clients
  Counter& parse_errors;       // router.parse_errors — rejected client lines
  Counter& quota_rejected;     // router.quota_rejected — token-bucket rejections
  Counter& nodes_lost;         // router.nodes_lost — nodes declared down
  Counter& handoffs;           // router.handoffs — ring-change handoff runs
  Counter& sessions_migrated;  // router.sessions_migrated — sessions replayed over
  Counter& replay_events;      // router.replay_events — journal lines resent
  Counter& replay_suppressed;  // router.replay_suppressed — duplicate verdicts dropped
  Counter& sessions_finished;  // router.sessions_finished — session reports routed
  Gauge& nodes_up;             // router.nodes_up
  Gauge& sessions_active;      // router.sessions_active — journaled live sessions
};
RouterMetrics& router_metrics();

class Router {
 public:
  /// Binds the client listener and connects every node; throws
  /// std::runtime_error when the listener cannot bind or *no* node is
  /// reachable (unreachable nodes are declared down immediately and
  /// their keys fall to the survivors).
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::uint16_t port() const { return loop_->port(); }

  /// Serves until request_stop(); call from one thread. Runs the /healthz
  /// prober on a second thread while it serves, when some node has an
  /// admin port.
  void run();
  /// Thread-safe (and async-signal-safe) shutdown trigger.
  void request_stop();

  /// Nodes in the ring, and sessions with a journal (live, unfinished);
  /// both thread-safe.
  std::size_t live_nodes() const { return live_nodes_.load(); }
  std::size_t active_sessions() const { return active_sessions_.load(); }

 private:
  struct Inflight {
    std::string session_key;
    std::uint64_t client = 0;  // connection the verdict goes back to
    bool replayed = false;  // suppress the verdict — the client saw it already
  };

  struct Upstream {
    NodeEndpoint endpoint;
    std::string name;
    std::uint64_t conn = 0;  // EpollLoop connection id; 0 if never connected
    bool up = false;
    /// Events sent but not yet answered: the node replies in line order.
    std::deque<Inflight> inflight;
    /// Consecutive failed /healthz probes, written by the prober thread.
    std::atomic<std::size_t> failed_probes{0};
  };

  struct SessionState {
    Upstream* owner = nullptr;
    std::uint64_t client = 0;  // connection of the session's last event (may be gone)
    std::vector<std::string> journal;  // every forwarded event line, in order
    std::size_t confirmed = 0;  // verdicts already delivered to the client
    std::size_t unanswered = 0;  // journaled events the owner has not answered
    double last_active_seconds = 0.0;  // wall clock; journal TTL pruning
  };

  void on_client_line(std::uint64_t conn, std::string_view line, std::string& replies);
  /// A node's verdicts: reports route by content, the rest pop its FIFO.
  void on_node_lines(Upstream& node, std::span<const std::string_view> lines);
  /// Sends one journaled line to `node` and records what answers it.
  void forward(Upstream& node, Inflight entry, std::string_view line);
  void on_tick();
  /// Declares `node` down and hands its sessions off to their new owners.
  void node_down(Upstream& node, std::string_view why);
  Upstream* upstream_of(std::uint64_t conn);
  void health_loop();
  bool probe_health(const NodeEndpoint& endpoint);

  RouterConfig config_;
  std::unique_ptr<serve::EpollLoop> loop_;
  // Loop thread only; the prober reads Upstream::endpoint and writes
  // Upstream::failed_probes, nothing else.
  HashRing ring_;
  std::unordered_map<std::string, std::unique_ptr<Upstream>> upstreams_;
  std::unordered_map<std::string, SessionState> sessions_;
  TenantQuotas quotas_;

  std::atomic<std::size_t> live_nodes_{0};
  std::atomic<std::size_t> active_sessions_{0};
  std::thread prober_;
};

}  // namespace misuse::router
