#include "router/router.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "serve/event.hpp"
#include "util/line_io.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"

namespace misuse::router {

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RouterMetrics& router_metrics() {
  static RouterMetrics instruments{
      metrics().counter("router.events"),
      metrics().counter("router.replies"),
      metrics().counter("router.parse_errors"),
      metrics().counter("router.quota_rejected"),
      metrics().counter("router.nodes_lost"),
      metrics().counter("router.handoffs"),
      metrics().counter("router.sessions_migrated"),
      metrics().counter("router.replay_events"),
      metrics().counter("router.replay_suppressed"),
      metrics().counter("router.sessions_finished"),
      metrics().gauge("router.nodes_up"),
      metrics().gauge("router.sessions_active"),
  };
  return instruments;
}

std::optional<NodeEndpoint> parse_node_endpoint(const std::string& spec) {
  NodeEndpoint out;
  const std::size_t first = spec.find(':');
  if (first == std::string::npos || first == 0) return std::nullopt;
  out.host = spec.substr(0, first);
  const std::size_t second = spec.find(':', first + 1);
  try {
    const std::string port_str = second == std::string::npos
                                     ? spec.substr(first + 1)
                                     : spec.substr(first + 1, second - first - 1);
    const unsigned long port = std::stoul(port_str);
    if (port == 0 || port > 65535) return std::nullopt;
    out.port = static_cast<std::uint16_t>(port);
    if (second != std::string::npos) {
      const unsigned long admin = std::stoul(spec.substr(second + 1));
      if (admin == 0 || admin > 65535) return std::nullopt;
      out.admin_port = static_cast<std::uint16_t>(admin);
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return out;
}

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.vnodes), quotas_(config_.quota) {
  if (config_.nodes.empty()) throw std::runtime_error("router: no upstream nodes given");
  if (config_.node_ttl_seconds > 0.0) {
    // The handoff guarantee needs the router's journal to outlive the
    // node-side session: a journal pruned while the node still holds
    // the session cannot be replayed, and the session's next event
    // re-enters as a fresh session (possibly on another node).
    if (config_.session_ttl_seconds <= config_.node_ttl_seconds) {
      throw std::runtime_error(
          "router: --session-ttl (" + std::to_string(config_.session_ttl_seconds) +
          "s) must exceed the nodes' --idle-ttl (" + std::to_string(config_.node_ttl_seconds) +
          "s); the replay journal would be pruned while nodes still hold the session");
    }
    if (config_.session_ttl_seconds < 2.0 * config_.node_ttl_seconds) {
      log_warn() << "router: --session-ttl (" << config_.session_ttl_seconds
                 << "s) is under twice the nodes' --idle-ttl (" << config_.node_ttl_seconds
                 << "s); keep a comfortable margin or a handoff near the TTL boundary "
                    "may find its journal already pruned";
    }
  }

  serve::EpollConfig loop_config;
  loop_config.port = config_.listen_port;
  loop_config.host = config_.listen_host;
  loop_config.tick_seconds = config_.tick_seconds;
  serve::EpollHandlers handlers;
  handlers.on_lines = [this](std::uint64_t conn, std::span<const std::string_view> lines,
                             std::string& replies) {
    if (Upstream* node = upstream_of(conn)) {
      on_node_lines(*node, lines);
    } else {
      for (const std::string_view line : lines) on_client_line(conn, line, replies);
    }
    active_sessions_.store(sessions_.size());
  };
  handlers.on_close = [this](std::uint64_t conn) {
    // A client's sessions keep their journals: a node failure after the
    // client left must still hand that state off for the node's final
    // report to be exact. Verdicts sent to the gone client are dropped.
    Upstream* node = upstream_of(conn);
    if (node != nullptr && node->up && !loop_->stopping()) node_down(*node, "connection closed");
  };
  handlers.on_tick = [this] { on_tick(); };
  loop_ = std::make_unique<serve::EpollLoop>(loop_config, std::move(handlers));

  for (const NodeEndpoint& endpoint : config_.nodes) {
    auto node = std::make_unique<Upstream>();
    node->endpoint = endpoint;
    node->name = endpoint.name();
    if (upstreams_.count(node->name) > 0) {
      throw std::runtime_error("router: duplicate node " + node->name);
    }
    try {
      node->conn = loop_->connect(endpoint.host, endpoint.port);
      node->up = true;
      ring_.add_node(node->name);
    } catch (const std::runtime_error& e) {
      log_warn() << "router: node " << node->name << " unreachable at startup: " << e.what();
    }
    upstreams_.emplace(node->name, std::move(node));
  }
  if (ring_.node_count() == 0) throw std::runtime_error("router: no upstream node reachable");
  live_nodes_.store(ring_.node_count());
  router_metrics().nodes_up.set(static_cast<std::int64_t>(ring_.node_count()));
}

Router::~Router() {
  request_stop();
  if (prober_.joinable()) prober_.join();
}

void Router::run() {
  for (const auto& [name, node] : upstreams_) {
    if (node->endpoint.admin_port != 0) {
      prober_ = std::thread([this] { health_loop(); });
      break;
    }
  }
  loop_->run();
  if (prober_.joinable()) prober_.join();
}

void Router::request_stop() { loop_->request_stop(); }

Router::Upstream* Router::upstream_of(std::uint64_t conn) {
  for (auto& [name, node] : upstreams_) {
    if (node->conn == conn) return node.get();
  }
  return nullptr;
}

void Router::forward(Upstream& node, Inflight entry, std::string_view line) {
  // A verdict the client will get: a half-closed client stays open for it.
  if (!entry.replayed) loop_->hold(entry.client);
  node.inflight.push_back(std::move(entry));
  loop_->send(node.conn, line);
}

void Router::on_client_line(std::uint64_t conn, std::string_view line, std::string& replies) {
  RouterMetrics& rm = router_metrics();
  serve::Event event;
  std::string error;
  if (!serve::parse_event(line, event, error)) {
    rm.parse_errors.inc();
    replies += serve::render_error_record(error, line);
    replies += '\n';
    return;
  }

  // Quota refill clock: producer event time when stamped (so replayed
  // traces throttle deterministically), wall clock otherwise. The bucket
  // keeps a per-tenant baseline per domain — epoch timestamps and
  // seconds-since-boot are never compared to each other.
  const bool stamped = event.has_timestamp;
  const double now = stamped ? event.timestamp : wall_seconds();
  const QuotaClock clock = stamped ? QuotaClock::kEvent : QuotaClock::kWall;
  if (!quotas_.admit(event.user_id, now, clock)) {
    rm.quota_rejected.inc();
    replies += serve::render_error_record("tenant quota exceeded: " + event.user_id, line);
    replies += '\n';
    return;
  }

  std::string key = serve::session_key(event);
  auto [it, inserted] = sessions_.try_emplace(key);
  SessionState& session = it->second;
  if (inserted) {
    const std::string* owner = ring_.owner_of(key);
    if (owner == nullptr) {
      sessions_.erase(it);
      replies += serve::render_error_record("no upstream nodes available", line);
      replies += '\n';
      return;
    }
    session.owner = upstreams_.at(*owner).get();
  }
  session.client = conn;
  session.last_active_seconds = wall_seconds();
  // The journal already holds the event when it is sent: if the node
  // fails before it answers, handoff replays it to the new owner, whose
  // reply reaches the client (it is unconfirmed).
  session.journal.emplace_back(line);
  ++session.unanswered;
  forward(*session.owner, Inflight{std::move(key), conn, false}, line);
  rm.events.inc();
}

void Router::on_node_lines(Upstream& node, std::span<const std::string_view> lines) {
  RouterMetrics& rm = router_metrics();
  for (const std::string_view line : lines) {
    if (serve::is_report_record(line)) {
      // Reports self-identify (a node's eviction reports share the
      // connection with step replies but answer no forwarded event) —
      // route by content, never the FIFO.
      std::vector<JsonField> fields;
      std::string parse_error;
      if (parse_flat_json(line, fields, parse_error)) {
        const auto it = sessions_.find(
            serve::session_key(get_string(fields, "user_id").value_or(""),
                               get_string(fields, "session_id").value_or("")));
        if (it != sessions_.end()) {
          SessionState& session = it->second;
          if (loop_->send(session.client, line)) rm.replies.inc();
          // The node answers a session's events in order: the answered
          // ones belong to the session this report finished, and the
          // unanswered ones opened its next one, so only they stay
          // journaled (and their verdicts still reach the client).
          if (session.unanswered == 0) {
            sessions_.erase(it);
          } else {
            const std::size_t answered = session.journal.size() - session.unanswered;
            session.journal.erase(session.journal.begin(),
                                  session.journal.begin() + static_cast<std::ptrdiff_t>(answered));
            session.confirmed -= std::min(session.confirmed, answered);
          }
        }
      }
      rm.sessions_finished.inc();
      continue;
    }
    if (node.inflight.empty()) {
      log_warn() << "router: unattributed reply from " << node.name << ": " << line;
      continue;
    }
    // step / error verdicts answer forwarded events in FIFO order.
    const Inflight entry = std::move(node.inflight.front());
    node.inflight.pop_front();
    const auto it = sessions_.find(entry.session_key);
    if (it != sessions_.end() && it->second.unanswered > 0) it->second.unanswered -= 1;
    if (entry.replayed) {
      rm.replay_suppressed.inc();
      continue;
    }
    if (it != sessions_.end()) {
      // `confirmed` is the client-visible verdict prefix. A replayed
      // (suppressed) reply answers a verdict already inside that prefix —
      // counting it again would inflate `confirmed` past what the client
      // has seen, and a second failure mid-replay would then suppress
      // verdicts that were never delivered.
      it->second.confirmed += 1;
      if (loop_->send(entry.client, line)) rm.replies.inc();
    }
    loop_->release(entry.client);
  }
}

void Router::on_tick() {
  for (auto& [name, node] : upstreams_) {
    if (node->up && node->endpoint.admin_port != 0 &&
        node->failed_probes.load() >= config_.health_failures_down) {
      node_down(*node, "healthz failing");
    }
  }
  const double now = wall_seconds();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_active_seconds > config_.session_ttl_seconds) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  active_sessions_.store(sessions_.size());
  router_metrics().sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
}

bool Router::probe_health(const NodeEndpoint& endpoint) {
  try {
    TcpStream probe = tcp_connect(endpoint.host, endpoint.admin_port);
    probe.set_read_timeout(2.0);  // the request is too small to block its write
    probe.io() << "GET /healthz HTTP/1.1\r\nHost: " << endpoint.host
               << "\r\nConnection: close\r\n\r\n";
    probe.io().flush();
    std::string status_line;
    if (!std::getline(probe.io(), status_line)) return false;
    // "HTTP/1.1 200 OK" — 200 covers ok and degraded; 503 is unhealthy.
    return status_line.find(" 200") != std::string::npos;
  } catch (const std::runtime_error&) {
    return false;
  }
}

void Router::health_loop() {
  // on_tick turns the counts into node_down calls on the loop thread.
  while (!loop_->stopping()) {
    for (auto& [name, node] : upstreams_) {
      if (node->endpoint.admin_port == 0) continue;
      if (loop_->stopping()) return;
      const std::size_t failed = node->failed_probes.load();
      node->failed_probes.store(probe_health(node->endpoint) ? 0 : failed + 1);
    }
    // Sleep in small slices so stop latency stays well under a probe
    // interval even when the interval is long.
    const auto interval = std::chrono::duration<double>(config_.health_interval_seconds);
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!loop_->stopping() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

void Router::node_down(Upstream& dead, std::string_view why) {
  RouterMetrics& rm = router_metrics();
  dead.up = false;
  // Unanswered events are replayed below, and their holds with them.
  for (const Inflight& entry : dead.inflight) {
    if (!entry.replayed) loop_->release(entry.client);
  }
  dead.inflight.clear();
  loop_->close(dead.conn);  // on_close sees the node down already
  ring_.remove_node(dead.name);
  rm.nodes_lost.inc();
  rm.handoffs.inc();
  rm.nodes_up.set(static_cast<std::int64_t>(ring_.node_count()));
  live_nodes_.store(ring_.node_count());
  log_warn() << "router: node " << dead.name << " down (" << why << "), " << ring_.node_count()
             << " node(s) remain";

  // Replay every session the dead node owned to its new owner. Scoring
  // is deterministic, so the replayed journal reconstructs the node-local
  // state byte-exactly; verdicts the client already saw (`confirmed`)
  // are marked for suppression. A new owner that dies mid-replay gets
  // its own node_down, which replays the same journals again.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    SessionState& session = it->second;
    if (session.owner != &dead) {
      ++it;
      continue;
    }
    const std::string* new_owner = ring_.owner_of(it->first);
    if (new_owner == nullptr) {
      loop_->send(session.client, serve::render_error_record("all upstream nodes lost", it->first));
      it = sessions_.erase(it);
      continue;
    }
    Upstream& successor = *upstreams_.at(*new_owner);
    session.owner = &successor;
    session.unanswered = session.journal.size();
    rm.sessions_migrated.inc();
    for (std::size_t i = 0; i < session.journal.size(); ++i) {
      forward(successor, Inflight{it->first, session.client, i < session.confirmed},
              session.journal[i]);
      rm.replay_events.inc();
    }
    // `confirmed` stays as-is: it counts client deliveries, and a
    // re-handoff after a cascading failure must suppress the same prefix
    // again.
    ++it;
  }
  active_sessions_.store(sessions_.size());
}

}  // namespace misuse::router
