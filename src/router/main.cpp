// misusedet_router: consistent-hash front door for a misusedet_serve
// cluster. Clients connect to the router and speak the same NDJSON
// event protocol as a single serve node; the router hashes each session
// onto one of the nodes (sticky, deterministic), forwards events,
// routes verdicts back, health-checks the nodes, and replays a dead
// node's sessions to the survivors from its per-session journal so the
// cluster's scored output stays byte-identical to a single node's.
// See DESIGN.md "Cluster serving".
//
//   misusedet_router --nodes=host:port[:admin_port],... [--listen=PORT]
//       [--vnodes=N] [--quota-rate=X] [--quota-burst=X]
//       [--health-interval=SECONDS] [--health-failures=N]
//       [--session-ttl=SECONDS] [--node-ttl=SECONDS] [--metrics-out=PATH]
#include <cerrno>
#include <csignal>
#include <iostream>
#include <sstream>
#include <string_view>

#include "core/observability.hpp"
#include "router/router.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace misuse::router {
namespace {

/// The router while it serves. The SIGINT/SIGTERM handler stops it
/// directly: request_stop() is an atomic store and an eventfd write, both
/// async-signal-safe. Every thread blocks both signals except inside the
/// router loop's wait (EpollLoop::run), so the handler runs only while
/// the pointer is set; a signal that comes earlier stays pending until
/// the first wait.
std::atomic<Router*> g_router{nullptr};

void handle_signal(int) {
  const int saved_errno = errno;
  if (Router* router = g_router.load()) router->request_stop();
  errno = saved_errno;
}

void usage(std::ostream& out) {
  out << "usage: misusedet_router --nodes=HOST:PORT[:ADMIN],... [options]\n"
      << "  --nodes=LIST            comma-separated serve nodes; the optional third\n"
      << "                          field is the node's admin port for /healthz probing\n"
      << "  --listen=PORT           client listen port (default 0 = ephemeral)\n"
      << "  --host=ADDR             client listen address (default 0.0.0.0)\n"
      << "  --vnodes=N              virtual points per node on the hash ring (default 64)\n"
      << "  --quota-rate=X          per-tenant events/second admitted (default 0 = off)\n"
      << "  --quota-burst=X         per-tenant token-bucket capacity (default max(rate,1))\n"
      << "  --health-interval=SEC   /healthz probe cadence (default 1.0)\n"
      << "  --health-failures=N     consecutive probe failures before a node is declared\n"
      << "                          down and its sessions handed off (default 3)\n"
      << "  --session-ttl=SEC       drop a session's replay journal after this much idle\n"
      << "                          time; keep it longer than the nodes' --idle-ttl\n"
      << "                          (default 900)\n"
      << "  --node-ttl=SEC          the nodes' --idle-ttl, for startup validation: the\n"
      << "                          router refuses --session-ttl <= --node-ttl and warns\n"
      << "                          under a 2x margin (default 0 = skip the check)\n"
      << "  --metrics-out=PATH      write the metrics/trace snapshot on exit\n";
}

/// Every flag router_main reads.
constexpr std::string_view kKnownFlags[] = {
    // Nodes and the client listener.
    "help", "nodes", "listen", "host", "vnodes",
    // Quotas, health probes, journal TTL and metrics.
    "quota-rate", "quota-burst", "health-interval", "health-failures", "session-ttl", "node-ttl",
    "metrics-out",
};

int router_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (const auto unknown = args.unknown_flag(kKnownFlags)) {
    std::cerr << "misusedet_router: unknown flag --" << *unknown << " (see --help)\n";
    return 2;
  }
  if (args.flag("help")) {
    usage(std::cout);
    return 0;
  }

  RouterConfig config;
  const std::string nodes = args.str("nodes");
  if (nodes.empty()) {
    usage(std::cerr);
    return 2;
  }
  std::stringstream list(nodes);
  std::string spec;
  while (std::getline(list, spec, ',')) {
    if (spec.empty()) continue;
    const auto endpoint = parse_node_endpoint(spec);
    if (!endpoint) {
      std::cerr << "bad node spec '" << spec << "' (want host:port[:admin_port])\n";
      return 2;
    }
    config.nodes.push_back(*endpoint);
  }
  config.listen_port = static_cast<std::uint16_t>(args.integer("listen", 0));
  config.listen_host = args.str("host", "0.0.0.0");
  config.vnodes = static_cast<std::size_t>(args.integer("vnodes", 64));
  config.quota.rate = args.real("quota-rate", 0.0);
  config.quota.burst = args.real("quota-burst", 0.0);
  config.health_interval_seconds = args.real("health-interval", 1.0);
  config.health_failures_down = static_cast<std::size_t>(args.integer("health-failures", 3));
  config.session_ttl_seconds = args.real("session-ttl", 900.0);
  config.node_ttl_seconds = args.real("node-ttl", 0.0);

  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // Blocked before the router and its prober thread exist, which inherit
  // the mask; the loop's wait is the one place they land.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  // A dying client or node must not kill the router mid-write.
  ::signal(SIGPIPE, SIG_IGN);

  core::MetricsExport metrics_export(args.str("metrics-out"));

  try {
    Router router(std::move(config));
    // Same stderr handshake as misusedet_serve: drivers scrape the port.
    log_info() << "listening on port " << router.port() << " (router, "
               << router.live_nodes() << " nodes)";
    g_router.store(&router);
    router.run();
    g_router.store(nullptr);
  } catch (const std::exception& e) {
    std::cerr << "misusedet_router: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace misuse::router

int main(int argc, char** argv) { return misuse::router::router_main(argc, argv); }
