#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "cluster/assigner.hpp"
#include "core/monitor.hpp"
#include "router/hash_ring.hpp"
#include "serve/event.hpp"
#include "serve/server.hpp"
#include "serve/session_table.hpp"
#include "serve/wal.hpp"

namespace misusebench {

namespace fs = std::filesystem;
using namespace misuse;

namespace {

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the span list; -1 for a top-level layer
  std::uint32_t event = 0;
};

class Spans {
 public:
  explicit Spans(std::size_t reserve) { spans_.reserve(reserve); }

  template <typename Fn>
  std::int32_t time(const char* name, std::int32_t parent, std::uint32_t event, Fn&& fn) {
    const std::int64_t start = now_ns();
    fn();
    spans_.push_back({name, start, now_ns(), parent, event});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  double duration_ns(std::int32_t span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end - s.start);
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

serve::Event parse_or_throw(const std::string& line) {
  serve::Event event;
  std::string error;
  if (!serve::parse_event(line, event, error)) throw std::runtime_error("bad event line: " + error);
  return event;
}

/// The state the monitor, OC-SVM and single-cluster probes keep for one
/// session, built on the session's first timed event by replaying its
/// history untimed.
struct SessionProbe {
  SessionProbe(const core::MisuseDetector& detector, std::size_t cluster)
      : monitor(detector, core::MonitorConfig{}),
        assignment(detector.assigner().start_online()),
        cluster(cluster),
        state(detector.make_cluster_state(cluster)) {}
  core::OnlineMonitor monitor;
  cluster::ClusterAssigner::OnlineAssignment assignment;
  std::size_t cluster;
  core::MisuseDetector::ClusterState state;
  std::vector<float> dist;
};

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  out << "{\"clock\":\"steady_ns\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"event\":" << s.event << ",\"start_ns\":" << (s.start - origin)
        << ",\"end_ns\":" << (s.end - origin) << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
}

}  // namespace

LayerSplit measure_layers(const core::MisuseDetector& detector, const std::vector<Record>& warmup,
                          const std::vector<Record>& paced, const LayerConfig& config) {
  const std::size_t timed = std::min(config.timed, paced.size());
  const bool durable = !config.wal_dir.empty();
  const auto fresh_dir = [&config](const std::string& name) {
    const fs::path dir = fs::path(config.wal_dir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  };

  serve::ServeConfig serve_config;  // the node's defaults
  std::vector<serve::OutputRecord> out;
  std::vector<serve::Event> events;
  for (std::size_t i = 0; i < timed; ++i) events.push_back(parse_or_throw(paced[i].event.line));

  serve::ServeConfig traced_config = serve_config;
  serve::ServeConfig twin_config = serve_config;
  if (durable) {
    traced_config.wal_dir = fresh_dir("traced");
    twin_config.wal_dir = fresh_dir("untraced");
  }
  serve::ScoringServer server(detector, traced_config);
  // The untraced twin replays the same events for trace.overhead_frac.
  serve::ScoringServer twin(detector, twin_config);
  serve::ShardConfig shard_config;
  shard_config.monitor = serve_config.monitor;
  shard_config.idle_ttl_seconds = serve_config.idle_ttl_seconds;
  shard_config.max_sessions = serve_config.max_sessions;
  shard_config.emit_steps = serve_config.emit_steps;
  serve::SessionShard shard(serve::ModelHandle::borrowed(detector), shard_config);
  std::vector<core::OnlineMonitor::StepResult> steps;
  shard.set_step_observer([&steps](const serve::Event&, const core::OnlineMonitor::StepResult& step) {
    steps.push_back(step);
  });
  std::unordered_map<std::string, std::vector<int>> history;
  std::uint64_t seq = 0;
  for (const Record& r : warmup) {
    const serve::Event event = parse_or_throw(r.event.line);
    const int action = serve::resolve_action_id(detector.vocab(), event.action);
    server.submit_sync(event, out);
    twin.submit_sync(event, out);
    shard.process(event, action, &detector, ++seq, out);
    out.clear();
    history[serve::session_key(event)].push_back(action);
  }
  steps.clear();

  // Each layer runs in its own pass over a block of timed events, so its
  // working set is as warm as it is on the node, and every pass over a
  // block sees the same host speed. Spans link to their logical parent in
  // the tree above.
  Spans spans(timed * 10);
  std::vector<std::int32_t> server_span(timed);
  std::vector<std::int32_t> shard_span(timed);
  std::vector<double> inproc_ns(timed, 0.0);
  std::vector<int> actions(timed);
  for (std::size_t i = 0; i < timed; ++i) {
    actions[i] = serve::resolve_action_id(detector.vocab(), events[i].action);
  }
  router::HashRing ring;
  ring.add_node(config.ring_node);
  std::optional<serve::WalWriter> wal;
  if (durable) wal.emplace(fresh_dir("layer") + "/wal.log", serve_config.wal_sync_every);
  const std::size_t k = detector.cluster_count();
  std::unordered_map<std::string, std::unique_ptr<SessionProbe>> probes;
  std::vector<SessionProbe*> probe_of(timed);
  std::uint64_t route_sink = 0;  // keeps the routing work observable
  double untraced_ns = 0.0;
  double render_bytes = 0.0;
  double wal_bytes = 0.0;
  double clusters_read = 0.0;
  std::size_t heads = 0;
  std::string error;
  constexpr std::size_t kBlock = 100;
  for (std::size_t begin = 0; begin < timed; begin += kBlock) {
    const std::size_t end = std::min(timed, begin + kBlock);

    // 1. The node's own path (parse, route, score), after the untraced
    // twin scored the same block.
    const std::int64_t twin_start = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      serve::Event event;
      serve::parse_event(paced[i].event.line, event, error);
      twin.submit_sync(event, out);
      out.clear();
    }
    untraced_ns += static_cast<double>(now_ns() - twin_start);
    for (std::size_t i = begin; i < end; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      serve::Event event;
      const std::int32_t parse = spans.time("parse", -1, id, [&] {
        serve::parse_event(paced[i].event.line, event, error);
      });
      spans.time("route", -1, id, [&] {
        const std::string key = serve::session_key(event);
        const std::string* owner = ring.owner_of(key);
        route_sink += serve::session_shard_hash(key) + (owner != nullptr ? owner->size() : 0);
      });
      server_span[i] = spans.time("server", -1, id, [&] { server.submit_sync(event, out); });
      out.clear();
      inproc_ns[i] = spans.duration_ns(parse) + spans.duration_ns(server_span[i]);
    }

    // 2. The session table, capturing each StepResult for rendering.
    for (std::size_t i = begin; i < end; ++i) {
      shard_span[i] = spans.time("shard", server_span[i], static_cast<std::uint32_t>(i), [&] {
        shard.process(events[i], actions[i], &detector, ++seq, out);
      });
      out.clear();
    }
    if (steps.size() != end) throw std::runtime_error("the shard skipped a step");

    // 3. Verdict rendering.
    for (std::size_t i = begin; i < end; ++i) {
      std::string rendered;
      spans.time("render", shard_span[i], static_cast<std::uint32_t>(i),
                 [&] { rendered = serve::render_step_record(events[i], steps[i]); });
      render_bytes += static_cast<double>(rendered.size());
      // Distributions the step read: the argmax and voted clusters'.
      if (steps[i].step >= 2) clusters_read += steps[i].cluster_argmax == steps[i].cluster_voted ? 1 : 2;
    }

    // 4. The monitor and its OC-SVM routing, on per-session copies that
    // catch up on the session's history untimed.
    for (std::size_t i = begin; i < end; ++i) {
      const std::string key = serve::session_key(events[i]);
      auto& past = history[key];
      auto it = probes.find(key);
      if (it == probes.end()) {
        auto probe = std::make_unique<SessionProbe>(detector, serve::session_shard_hash(key) % k);
        for (const int a : past) {
          (void)probe->monitor.observe(a);
          (void)probe->assignment.push(a);
          detector.step_cluster_into(probe->cluster, probe->state, a, probe->dist);
        }
        it = probes.emplace(key, std::move(probe)).first;
      }
      SessionProbe& probe = *it->second;
      probe_of[i] = &probe;
      const auto id = static_cast<std::uint32_t>(i);
      const std::int32_t monitor =
          spans.time("monitor", shard_span[i], id, [&] { (void)probe.monitor.observe(actions[i]); });
      spans.time("ocsvm", monitor, id, [&] { (void)probe.assignment.push(actions[i]); });
      past.push_back(actions[i]);
    }

    // 5. The write-ahead log (durable workload only).
    for (std::size_t i = begin; wal && i < end; ++i) {
      std::string record;
      spans.time("wal", server_span[i], static_cast<std::uint32_t>(i), [&] {
        record = serve::encode_event_record(events[i], i + 1);
        wal->append(record);
        wal->flush();
      });
      wal_bytes += static_cast<double>(record.size());
    }

    // 6. One cluster's LSTM advance, then its head + softmax.
    for (std::size_t i = begin; i < end; ++i) {
      SessionProbe& probe = *probe_of[i];
      const auto id = static_cast<std::uint32_t>(i);
      spans.time("lstm", -1, id, [&] {
        detector.step_cluster_into(probe.cluster, probe.state, actions[i], probe.dist);
      });
      if (probe.state.use_engine && !detector.cluster_degraded(probe.cluster)) {
        spans.time("head", -1, id, [&] {
          detector.materialize_cluster_dist(probe.cluster, probe.state, probe.dist);
        });
        ++heads;
      }
    }
  }
  if (timed > 0 && route_sink == 0) throw std::runtime_error("routing produced no owner");
  write_trace(config.trace_path, spans.all());

  std::map<std::string, double> total_ns;
  for (const Span& s : spans.all()) total_ns[s.name] += static_cast<double>(s.end - s.start);
  const double n = static_cast<double>(std::max<std::size_t>(timed, 1));
  const auto per_event_us = [&](const char* name) { return total_ns[name] / n / 1e3; };

  LayerSplit split;
  auto& m = split.metrics;
  m["parse.us_per_event"] = per_event_us("parse");
  m["route.us_per_event"] = per_event_us("route");
  m["server.us_per_event"] = per_event_us("server");
  m["shard.self_us_per_event"] =
      per_event_us("shard") - per_event_us("monitor") - per_event_us("render");
  m["monitor.us_per_event"] = per_event_us("monitor");
  m["ocsvm.us_per_event"] = per_event_us("ocsvm");
  m["model.us_per_event"] = per_event_us("monitor") - per_event_us("ocsvm");
  m["lstm.us_per_call"] = per_event_us("lstm");
  m["head.us_per_call"] = heads > 0 ? total_ns["head"] / static_cast<double>(heads) / 1e3 : 0.0;
  const double cluster_steps =
      m["lstm.us_per_call"] > 0.0 ? m["model.us_per_event"] / m["lstm.us_per_call"] : 0.0;
  m["model.cluster_steps_per_event"] = cluster_steps;
  m["model.useful_frac"] = cluster_steps > 0.0 ? clusters_read / n / cluster_steps : 0.0;
  m["render.us_per_event"] = per_event_us("render");
  m["render.bytes_per_event"] = render_bytes / n;
  m["wal.us_per_event"] = per_event_us("wal");
  m["wal.bytes_per_event"] = wal_bytes / n;
  m["trace.overhead_frac"] =
      untraced_ns > 0.0 ? (total_ns["parse"] + total_ns["server"]) / untraced_ns - 1.0 : 0.0;

  std::sort(inproc_ns.begin(), inproc_ns.end());
  split.inproc_p50_us = inproc_ns.empty() ? 0.0 : inproc_ns[inproc_ns.size() / 2] / 1e3;
  const auto excess = [&](double parent, double children) {
    return parent > 0.0 ? std::max(0.0, children / parent - 1.0) : 0.0;
  };
  split.worst_nesting_excess = std::max(
      {excess(total_ns["server"], total_ns["shard"] + total_ns["wal"]),
       excess(total_ns["shard"], total_ns["monitor"] + total_ns["render"]),
       excess(total_ns["monitor"], total_ns["ocsvm"])});
  return split;
}

}  // namespace misusebench
