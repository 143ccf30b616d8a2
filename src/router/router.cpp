#include "router/router.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "serve/event.hpp"
#include "util/line_io.hpp"
#include "util/logging.hpp"

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

  for (const NodeEndpoint& endpoint : config_.nodes) {
    auto up = std::make_unique<Upstream>();
    up->endpoint = endpoint;
    const std::string name = endpoint.name();
    if (upstreams_.count(name) > 0) throw std::runtime_error("router: duplicate node " + name);
    try {
      up->stream.emplace(tcp_connect(endpoint.host, endpoint.port));
      up->stream->set_write_timeout(config_.upstream_write_timeout_seconds);
      up->read_buf = std::make_unique<FdStreamBuf>(up->stream->fd());
      up->read_stream = std::make_unique<std::istream>(up->read_buf.get());
      up->up = true;
      ring_.add_node(name);
    } catch (const std::runtime_error& e) {
      log_warn() << "router: node " << name << " unreachable at startup: " << e.what();
    }
    upstreams_.emplace(name, std::move(up));
  }
  if (ring_.node_count() == 0) throw std::runtime_error("router: no upstream node reachable");
  router_metrics().nodes_up.set(static_cast<std::int64_t>(ring_.node_count()));

  serve::EpollConfig loop_config;
  loop_config.port = config_.listen_port;
  loop_config.host = config_.listen_host;
  loop_config.tick_seconds = config_.tick_seconds;
  serve::EpollHandlers handlers;
  handlers.on_lines = [this](std::uint64_t conn, std::span<const std::string_view> lines,
                             std::string& replies) {
    for (const std::string_view line : lines) on_client_line(conn, line, replies);
  };
  handlers.on_close = [this](std::uint64_t conn) {
    // The client is gone; detach its sessions so replies stop, but keep
    // the journals — the node-side state still finishes to the node's
    // stdout report stream, and a node failure after the client left
    // must still hand that state off for the final report to be exact.
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto& [key, session] : sessions_) {
      if (session.client == conn) session.client = 0;
    }
  };
  handlers.on_tick = [this] {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const double now = wall_seconds();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (now - it->second.last_active_seconds > config_.session_ttl_seconds) {
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    router_metrics().sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  };
  loop_ = std::make_unique<serve::EpollLoop>(loop_config, std::move(handlers));

  // Reader threads start only after `loop_` exists: they post() replies
  // through it.
  for (auto& [name, up] : upstreams_) {
    if (!up->up) continue;
    up->reader = std::thread([this, node = name] { reader_loop(node); });
  }
}

Router::~Router() {
  request_stop();
  if (health_thread_.joinable()) health_thread_.join();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto& [name, up] : upstreams_) {
      if (up->stream) {
        up->stream->shutdown_read();  // unblocks the reader's blocking read
        up->stream->shutdown_write();
      }
    }
  }
  for (auto& [name, up] : upstreams_) {
    if (up->reader.joinable()) up->reader.join();
  }
}

void Router::run() {
  health_thread_ = std::thread([this] { health_loop(); });
  loop_->run();
}

void Router::request_stop() {
  stop_.store(true, std::memory_order_release);
  loop_->request_stop();
}

std::size_t Router::live_nodes() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return ring_.node_count();
}

std::size_t Router::active_sessions() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return sessions_.size();
}

bool Router::send_upstream(Upstream& node, const std::string& framed) {
  if (!node.up || !node.stream) return false;
  std::iostream& io = node.stream->io();
  io.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  io.flush();
  return io.good();
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

  std::string down_node;  // node to declare dead once the lock is dropped
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // Quota refill clock: producer event time when stamped (so replayed
    // traces throttle deterministically), wall clock otherwise. The
    // bucket keeps a per-tenant baseline per domain — epoch timestamps
    // and seconds-since-boot are never compared to each other.
    const bool stamped = event.has_timestamp;
    const double now = stamped ? event.timestamp : wall_seconds();
    const QuotaClock clock = stamped ? QuotaClock::kEvent : QuotaClock::kWall;
    if (!quotas_.admit(event.user_id, now, clock)) {
      rm.quota_rejected.inc();
      replies += serve::render_error_record("tenant quota exceeded: " + event.user_id, line);
      replies += '\n';
      return;
    }

    const std::string key = serve::session_key(event);
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
      session.owner = *owner;
    }
    session.client = conn;
    session.last_active_seconds = wall_seconds();

    std::string framed(line);
    framed += '\n';
    session.journal.push_back(framed);

    Upstream& node = *upstreams_.at(session.owner);
    node.inflight.push_back(Inflight{key, false});
    if (!send_upstream(node, framed)) {
      // The journal already holds this event; handoff replays it to the
      // new owner, whose reply reaches the client (it is unconfirmed).
      down_node = session.owner;
    }
    rm.events.inc();
  }
  if (!down_node.empty()) node_down(down_node, "forward failed");
}

void Router::reader_loop(const std::string& node_name) {
  RouterMetrics& rm = router_metrics();
  std::istream* in = nullptr;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    Upstream& node = *upstreams_.at(node_name);
    if (!node.read_stream) return;
    in = node.read_stream.get();
  }
  // The blocking read below runs without the lock; node_down() wakes it
  // with shutdown_read() rather than destroying the stream (the Upstream
  // object and its TcpStream live until ~Router). It reads through the
  // node's dedicated read_stream, never stream->io(): send_upstream
  // writes that iostream under state_mutex_, and two threads sharing
  // one stream's state flags would be a data race even though the
  // streambuf get/put areas are distinct.
  LineReader reader(*in);
  std::string line;
  while (reader.next(line)) {
    std::vector<JsonField> fields;
    std::string parse_error;
    std::string type;
    if (parse_flat_json(line, fields, parse_error)) {
      type = get_string(fields, "type").value_or("");
    }

    std::uint64_t deliver_to = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      Upstream& node = *upstreams_.at(node_name);
      if (type == "session_report") {
        // Reports self-identify (capacity/swap evictions ride the
        // upstream connection out of order with step replies) — route by
        // content, never the FIFO.
        const std::string user = get_string(fields, "user_id").value_or("");
        const std::string sess = get_string(fields, "session_id").value_or("");
        const auto it = sessions_.find(serve::session_key(user, sess));
        if (it != sessions_.end()) {
          deliver_to = it->second.client;
          sessions_.erase(it);
        }
        rm.sessions_finished.inc();
      } else if (!node.inflight.empty()) {
        // step / error verdicts answer forwarded events in FIFO order.
        const Inflight entry = node.inflight.front();
        node.inflight.pop_front();
        const auto it = sessions_.find(entry.session_key);
        if (it != sessions_.end() && !entry.replayed) {
          // `confirmed` is the client-visible verdict prefix. A replayed
          // (suppressed) reply answers a verdict already inside that
          // prefix — counting it again would inflate `confirmed` past
          // what the client has seen, and a second failure mid-replay
          // would then suppress verdicts that were never delivered.
          it->second.confirmed += 1;
          deliver_to = it->second.client;
        }
        if (entry.replayed) rm.replay_suppressed.inc();
      } else {
        log_warn() << "router: unattributed reply from " << node_name << ": " << line;
      }
    }
    if (deliver_to != 0) {
      loop_->post(deliver_to, line + "\n");
      rm.replies.inc();
    }
  }
  if (!stop_.load(std::memory_order_acquire)) node_down(node_name, "reply stream closed");
}

bool Router::probe_health(const NodeEndpoint& endpoint) {
  try {
    TcpStream probe = tcp_connect(endpoint.host, endpoint.admin_port);
    probe.set_read_timeout(2.0);
    probe.set_write_timeout(2.0);
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
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<std::pair<std::string, NodeEndpoint>> targets;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      for (const auto& [name, up] : upstreams_) {
        if (up->up && up->endpoint.admin_port != 0) targets.emplace_back(name, up->endpoint);
      }
    }
    for (const auto& [name, endpoint] : targets) {
      if (stop_.load(std::memory_order_acquire)) return;
      const bool healthy = probe_health(endpoint);
      bool declare_down = false;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        const auto it = upstreams_.find(name);
        if (it == upstreams_.end() || !it->second->up) continue;
        Upstream& node = *it->second;
        node.health_fails = healthy ? 0 : node.health_fails + 1;
        declare_down = node.health_fails >= config_.health_failures_down;
      }
      if (declare_down) node_down(name, "healthz failing");
    }
    // Sleep in small slices so stop latency stays well under a probe
    // interval even when the interval is long.
    const auto interval = std::chrono::duration<double>(config_.health_interval_seconds);
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

void Router::node_down(const std::string& name, const std::string& why) {
  RouterMetrics& rm = router_metrics();
  // Nodes that fail *during* a handoff replay queue up behind the first:
  // the loop drains them one at a time, so a cascading failure (replay
  // target dies mid-replay) terminates with either every session on a
  // survivor or an error record to the client when the ring empties.
  std::vector<std::string> downed{name};
  std::vector<std::string> reasons{why};
  while (!downed.empty()) {
    const std::string target = std::move(downed.back());
    const std::string reason = std::move(reasons.back());
    downed.pop_back();
    reasons.pop_back();

    std::vector<std::pair<std::uint64_t, std::string>> client_errors;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      const auto up_it = upstreams_.find(target);
      if (up_it == upstreams_.end() || !up_it->second->up) continue;  // already down
      Upstream& dead = *up_it->second;
      dead.up = false;
      dead.inflight.clear();
      if (dead.stream) {
        dead.stream->shutdown_read();  // unblock the reader thread
        dead.stream->shutdown_write();
      }
      ring_.remove_node(target);
      rm.nodes_lost.inc();
      rm.handoffs.inc();
      rm.nodes_up.set(static_cast<std::int64_t>(ring_.node_count()));
      log_warn() << "router: node " << target << " down (" << reason << "), "
                 << ring_.node_count() << " node(s) remain";

      // Replay every session the dead node owned to its new owner.
      // Scoring is deterministic, so the replayed journal reconstructs
      // the node-local state byte-exactly; verdicts the client already
      // saw (`confirmed`) are marked for suppression.
      std::string failed_target;
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        SessionState& session = it->second;
        if (session.owner != target) {
          ++it;
          continue;
        }
        const std::string* new_owner = ring_.owner_of(it->first);
        if (new_owner == nullptr) {
          if (session.client != 0) {
            client_errors.emplace_back(
                session.client,
                serve::render_error_record("all upstream nodes lost", it->first) + "\n");
          }
          it = sessions_.erase(it);
          continue;
        }
        session.owner = *new_owner;
        Upstream& successor = *upstreams_.at(*new_owner);
        rm.sessions_migrated.inc();
        bool sent_all = true;
        for (std::size_t i = 0; i < session.journal.size(); ++i) {
          successor.inflight.push_back(Inflight{it->first, i < session.confirmed});
          rm.replay_events.inc();
          if (!send_upstream(successor, session.journal[i])) {
            sent_all = false;
            break;
          }
        }
        if (!sent_all && failed_target.empty()) failed_target = *new_owner;
        // `confirmed` stays as-is: it counts client deliveries, and a
        // re-handoff after a cascading failure must suppress the same
        // prefix again.
        ++it;
      }
      if (!failed_target.empty()) {
        downed.push_back(failed_target);
        reasons.emplace_back("forward failed during handoff");
      }
    }
    for (auto& [conn, record] : client_errors) loop_->post(conn, std::move(record));
  }
}

}  // namespace misuse::router
