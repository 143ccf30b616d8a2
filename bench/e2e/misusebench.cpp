// misusebench: event -> verdict latency and throughput through a real
// misusedet_router and misusedet_serve, per workload, with detection
// quality beside the speed and a per-layer split from a traced
// in-process replay. See README.md for the workloads and metrics.
//
//   misusebench [--workload NAME] [--seed N] [--trace 0|1] [--smoke]
//               [--out PATH] [--build-dir DIR]
//
// Each workload measures for a fixed 16 s (4 s with --smoke). --seconds 16
// is accepted, for harnesses that pass the run length they expect, and any
// other value is refused.
//
// Every metric prints as "workload metric value unit"; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics} holding
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Each run also appends one host-stamped JSON line to --out.
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "layers.hpp"
#include "live.hpp"
#include "nn/infer/dispatch.hpp"
#include "serve/event.hpp"
#include "serve/server.hpp"
#include "traffic.hpp"
#include "util/cli.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace misusebench {
namespace {

namespace fs = std::filesystem;
using namespace misuse;

// Measured time per workload: half paced, half saturated. Fixed, so every
// commit is measured over the same events; --smoke shortens it for a
// harness check.
constexpr double kRunSeconds = 16.0;
constexpr double kSmokeSeconds = 4.0;
constexpr int kLaunches = 5;            // setup_s is the median of these
constexpr std::size_t kWindow = 64;     // closed loop: events in flight per connection
constexpr double kPacedGraceS = 10.0;   // wait for late verdicts after the schedule
// Each vCPU of a shared host runs at anything from a quarter to all of
// its speed, changing within a second and independently of the others,
// so the placement turns every window and tick (see rotate()). Latency
// percentiles are taken per window and the run reports the median
// window. In saturate, rates and CPU are taken per tick and the run
// reports the tenth of ticks the host slowed least: interference only
// ever slows, so those ticks are the closest to what the code itself
// costs, and short ticks catch the moments when the host interferes least.
constexpr double kPacedWindowS = 0.25;
constexpr double kSaturateTickS = 0.1;
// The host's clock also moves from one run to the next: the chain of
// clock_steps_per_us() reads anywhere from about 600 to 790 steps/µs on
// the reference host, and every timed metric follows it. So each timed metric
// is scaled to this reference clock, by the clock read with the node and
// router idle just before and just after the phase that measured it.
constexpr double kReferenceStepsPerUs = 650.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics the final JSON line carries; BENCHMARK.json lists the same.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_eps", "events/s"},
    {"cpu_ms_per_kevent", "ms"},
    {"latency_p50_ms", "ms"},
    {"node_rss_mb", "MiB"},
    {"detect_auc", "ratio"},
    {"detect_rate_at_5fpr", "ratio"},
};
const std::vector<MetricDef> kPerLayer = {
    {"parse.us_per_event", "us"},
    {"route.us_per_event", "us"},
    {"router.cpu_us_per_event", "us"},
    {"node.cpu_us_per_event", "us"},
    {"frontend.us_per_event", "us"},
    {"server.us_per_event", "us"},
    {"shard.self_us_per_event", "us"},
    {"monitor.us_per_event", "us"},
    {"ocsvm.us_per_event", "us"},
    {"model.us_per_event", "us"},
    {"lstm.us_per_call", "us"},
    {"head.us_per_call", "us"},
    {"model.cluster_steps_per_event", "count"},
    {"model.useful_frac", "ratio"},
    {"render.us_per_event", "us"},
    {"render.bytes_per_event", "bytes"},
    {"wal.us_per_event", "us"},
    {"wal.bytes_per_event", "bytes"},
    {"wait.us_p50", "us"},
    {"node.bytes_per_session", "bytes"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};
// Printed and recorded, but in neither list. The tail percentiles swing
// by more than any usable bound from run to run on a shared host (see
// README.md); the failure share is 0 on every correct run, so the
// result's "failed" count carries it; the traffic ratios are properties
// of the workload, not of the code.
const std::vector<MetricDef> kExtra = {
    {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"failed_frac", "ratio"},
    {"traffic.past_vote_frac", "ratio"},
    {"traffic.sessions_per_kevent", "count"},
};

struct RunResult {
  std::string workload;
  std::map<std::string, double> metrics;
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  /// The run's settings: two runs compare like for like only when these
  /// are equal (compare.py checks).
  std::map<std::string, double> config;
  /// Counts the run observed beside its metrics (events per phase, scrapes).
  std::map<std::string, double> observed;
};

const char* unit_of(const std::string& name) {
  for (const auto* defs : {&kEndToEnd, &kExtra, &kPerLayer}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

/// The clock read before and after a phase, as a multiple of the
/// reference clock: a time measured in the phase times this is the time
/// at the reference clock.
double clock_scale(double before, double after) {
  return (before + after) / 2.0 / kReferenceStepsPerUs;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Indices of the tenth (at least one) of `v` with the lowest values.
std::vector<std::size_t> lowest_tenth(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  order.resize(std::min(v.size(), std::max<std::size_t>(1, v.size() / 10)));
  return order;
}

double mean_at(const std::vector<double>& v, const std::vector<std::size_t>& at) {
  double sum = 0.0;
  for (const std::size_t i : at) sum += v[i];
  return at.empty() ? 0.0 : sum / static_cast<double>(at.size());
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool number_starts(const std::string& s, std::size_t i) {
  if (i >= s.size() || i == 0) return false;
  const char prev = s[i - 1];
  return (prev == ':' || prev == ',' || prev == '[') &&
         (s[i] == '-' || (s[i] >= '0' && s[i] <= '9'));
}

/// Byte equality; when the serving kernels are only ULP-close to the
/// reference forward, equal text with numbers within 1e-5 relative.
bool same_verdict(const std::string& a, const std::string& b, bool exact) {
  if (a == b) return true;
  if (exact) return false;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (number_starts(a, i) && number_starts(b, j)) {
      char* ea = nullptr;
      char* eb = nullptr;
      const double x = std::strtod(a.c_str() + i, &ea);
      const double y = std::strtod(b.c_str() + j, &eb);
      if (std::fabs(x - y) > 1e-5 * std::max(std::fabs(x), std::fabs(y))) return false;
      i = static_cast<std::size_t>(ea - a.c_str());
      j = static_cast<std::size_t>(eb - b.c_str());
      continue;
    }
    if (a[i++] != b[j++]) return false;
  }
  return i == a.size() && j == b.size();
}

/// Replays `records` through an in-process ScoringServer (the node's
/// defaults, batch entry path) and counts verdicts that differ from the
/// ones the live run read.
std::size_t replay_mismatches(const core::MisuseDetector& detector,
                              const std::vector<const Record*>& records) {
  const bool exact = nn::infer::effective_infer_mode() != nn::infer::InferMode::kAvx2;
  serve::ServeConfig config;
  // The replay never sweeps, so it must not evict by capacity either.
  config.max_sessions = records.size() + 1;
  serve::ScoringServer server(detector, config);
  std::vector<serve::OutputRecord> out;
  out.reserve(records.size());
  serve::Event event;
  std::string error;
  std::size_t since_pump = 0;
  for (const Record* r : records) {
    if (!serve::parse_event(r->event.line, event, error)) return records.size();
    while (server.enqueue(event, out) == serve::ScoringServer::Enqueue::kQueueFull) server.pump(out);
    if (++since_pump >= 256) {
      server.pump(out);
      since_pump = 0;
    }
  }
  server.pump(out);
  if (out.size() != records.size()) return records.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!same_verdict(records[i]->reply, out[i].line, exact)) ++bad;
  }
  return bad;
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  std::string build_dir;
  CpuLayout cpus;
};

RunResult run_workload(const Corpus& corpus, const WorkloadSpec& spec, const Options& opt) {
  RunResult result;
  result.workload = spec.name;
  const std::string model_path = prepare_model(corpus, opt.build_dir + "/models", spec.model);
  const core::MisuseDetector detector = core::MisuseDetector::load_file(model_path);
  Traffic traffic(corpus, spec, opt.seed);
  const double paced_s = opt.seconds / 2.0;
  const auto ticks =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(opt.seconds / 2.0 / kSaturateTickS)));
  const double saturate_s = static_cast<double>(ticks) * kSaturateTickS;
  const auto paced_n = static_cast<std::size_t>(std::llround(spec.rate * paced_s));

  LaunchConfig launch_config{MISUSEBENCH_SERVE_BIN, MISUSEBENCH_ROUTER_BIN, model_path, "", opt.cpus};
  if (spec.durable) launch_config.wal_dir = opt.build_dir + "/wal_" + spec.name;
  // The generator shares the router's CPU until both processes are gone.
  std::optional<ThreadPin> generator_pin(std::in_place, opt.cpus.router);
  // Read with nothing else of the run busy: before the first launch, and
  // after each phase has had every verdict.
  const auto clock = [&opt] { return clock_steps_per_us(opt.cpus.all); };

  // 1. setup: spawn -> first verdict, kLaunches times; the last launch serves.
  const double clock_before_setup = clock();
  std::vector<double> setups;
  Cluster cluster;
  for (int i = 0; i < kLaunches; ++i) {
    cluster = Cluster{};  // stops the previous launch before timing the next
    if (spec.durable) {
      // Each launch starts from an empty log, as a fresh node would.
      fs::remove_all(launch_config.wal_dir);
      fs::create_directories(launch_config.wal_dir);
    }
    const std::string probe_line = "{\"user_id\":\"probe\",\"session_id\":\"probe" +
                                   std::to_string(i) + "\",\"action\":\"" +
                                   corpus.portal.vocab().name(0) + "\",\"timestamp\":0}";
    const std::int64_t start = now_ns();
    cluster = launch(launch_config);
    if (!probe(cluster.port, probe_line)) throw std::runtime_error("no verdict for the probe event");
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  const ProcSample after_setup = sample_proc(cluster.node.pid());
  const double clock_after_setup = clock();

  std::vector<Record> warm;
  std::vector<Record> paced;
  Generator::Saturation sat;
  std::vector<ProcSample> node_cpu;
  std::vector<ProcSample> router_cpu;
  ProcSample after_warm;
  double clock_before_paced = 0.0;
  double clock_after_paced = 0.0;
  double clock_after_saturate = 0.0;
  std::size_t scrapes = 0;
  std::size_t scrape_failures = 0;
  {
    Generator gen(cluster.port, cluster.admin_port, {&cluster.node, &cluster.router});
    // 2. warm-up: one turnover of the slots, closed loop, not measured.
    warm = gen.closed_count(traffic, traffic.warmup_events(), kWindow);
    after_warm = sample_proc(cluster.node.pid());
    clock_before_paced = clock();
    // The measured phases turn the placement every latency window and
    // every saturate tick (see rotate()).
    std::size_t turn = 0;
    const auto next_turn = [&] {
      rotate(opt.cpus, cluster.node.pid(), cluster.router.pid(), turn++);
    };
    // 3. paced: open loop on a fixed schedule.
    paced = gen.paced(traffic, paced_n, spec.rate, kPacedGraceS, kPacedWindowS, next_turn);
    const bool aligned = std::all_of(paced.begin(), paced.end(),
                                     [](const Record& r) { return r.done_ns != 0; });
    clock_after_paced = clock();
    // 4. saturate: closed loop, kConnections x kWindow in flight.
    if (aligned) {
      sat = gen.saturate(traffic, ticks, kSaturateTickS, kWindow, [&] {
        node_cpu.push_back(sample_proc(cluster.node.pid()));
        router_cpu.push_back(sample_proc(cluster.router.pid()));
        next_turn();
      });
    } else {
      result.problems.push_back("paced verdicts missing; saturate skipped");
    }
    clock_after_saturate = clock();
    scrapes = gen.scrapes();
    scrape_failures = gen.scrape_failures();
    if (spec.durable && scrapes == 0) result.problems.push_back("no /metrics scrape succeeded");
  }
  // 5. read the node's peak RSS, stop router then node, check outputs.
  const ProcSample final_node = sample_proc(cluster.node.pid());
  if (!cluster.router.terminate(20.0)) result.problems.push_back("router did not exit cleanly");
  if (!cluster.node.terminate(60.0)) result.problems.push_back("node did not exit cleanly");
  generator_pin.reset();
  if (spec.durable) fs::remove_all(launch_config.wal_dir);

  std::size_t bad = sat.failed;
  std::vector<const Record*> checked;
  for (const auto* phase : {&warm, &paced}) {
    for (const Record& r : *phase) {
      if (!r.ok) ++bad;
      checked.push_back(&r);
    }
  }
  const std::size_t mismatched = replay_mismatches(detector, checked);
  if (mismatched > 0) {
    result.problems.push_back(std::to_string(mismatched) +
                              " verdicts differ from the in-process replay");
  }
  result.attempted = warm.size() + paced.size() + sat.sent;
  result.failed = bad + mismatched;
  if (bad > 0) result.problems.push_back(std::to_string(bad) + " events without a correct verdict");
  if (sat.answered_at.size() < 2 || sat.answered_at.back() == 0) {
    result.problems.push_back("saturate answered no events");
  }
  result.correct = result.failed == 0 && result.problems.empty();

  // Latency from each paced event's due time; a missing verdict is +inf.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::map<std::int64_t, std::vector<double>> latency_windows;
  std::size_t past_vote = 0;
  std::size_t opened = 0;
  const std::size_t vote = detector.assigner().config().vote_actions;
  for (const Record& r : paced) {
    latency_ms.push_back(r.done_ns != 0 && r.ok ? static_cast<double>(r.done_ns - r.due_ns) / 1e6
                                                : std::numeric_limits<double>::infinity());
    const auto window = static_cast<std::int64_t>(
        static_cast<double>(r.due_ns - paced.front().due_ns) / (kPacedWindowS * 1e9));
    latency_windows[window].push_back(latency_ms.back());
    late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    if (r.event.step > vote) ++past_vote;
    if (r.event.step == 1) ++opened;
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(late_ms.begin(), late_ms.end());
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  for (auto& [w, values] : latency_windows) {
    std::sort(values.begin(), values.end());
    window_p50.push_back(percentile(values, 0.50));
    window_p90.push_back(percentile(values, 0.90));
  }

  const Detection detection = score_detection(corpus, spec, detector);

  // Saturate: per-tick rate and CPU per event (node + router).
  std::vector<double> tick_negated_rate;
  std::vector<double> tick_cpu_us;
  std::vector<double> tick_node_us;
  std::vector<double> tick_router_us;
  for (std::size_t t = 1; t < sat.answered_at.size() && t < node_cpu.size(); ++t) {
    const double events = static_cast<double>(sat.answered_at[t] - sat.answered_at[t - 1]);
    if (events <= 0.0) continue;
    const double node_s = node_cpu[t].cpu_s - node_cpu[t - 1].cpu_s;
    const double router_s = router_cpu[t].cpu_s - router_cpu[t - 1].cpu_s;
    tick_negated_rate.push_back(-events / kSaturateTickS);
    tick_node_us.push_back(node_s * 1e6 / events);
    tick_router_us.push_back(router_s * 1e6 / events);
    tick_cpu_us.push_back((node_s + router_s) * 1e6 / events);
  }
  const std::vector<std::size_t> fastest = lowest_tenth(tick_negated_rate);
  const std::vector<std::size_t> cheapest = lowest_tenth(tick_cpu_us);
  // Timed metrics at the reference clock (see kReferenceStepsPerUs).
  const double setup_scale = clock_scale(clock_before_setup, clock_after_setup);
  const double paced_scale = clock_scale(clock_before_paced, clock_after_paced);
  const double saturate_scale = clock_scale(clock_after_paced, clock_after_saturate);
  auto& m = result.metrics;
  m["setup_s"] = median(setups) * setup_scale;
  m["throughput_eps"] = -mean_at(tick_negated_rate, fastest) / saturate_scale;
  // us per event == ms per 1000 events
  m["cpu_ms_per_kevent"] = mean_at(tick_cpu_us, cheapest) * saturate_scale;
  m["latency_p50_ms"] = median(window_p50) * paced_scale;
  m["latency_p90_ms"] = median(window_p90) * paced_scale;
  m["latency_p99_ms"] = percentile(latency_ms, 0.99) * paced_scale;
  m["node_rss_mb"] = final_node.hwm_mb;
  m["detect_auc"] = detection.auc;
  m["detect_rate_at_5fpr"] = detection.rate_at_5fpr;
  m["failed_frac"] = static_cast<double>(result.failed) /
                     static_cast<double>(std::max<std::size_t>(result.attempted, 1));
  // Over the same ticks, so the two add up to cpu_ms_per_kevent.
  m["router.cpu_us_per_event"] = mean_at(tick_router_us, cheapest) * saturate_scale;
  m["node.cpu_us_per_event"] = mean_at(tick_node_us, cheapest) * saturate_scale;
  m["node.bytes_per_session"] =
      (after_warm.rss_mb - after_setup.rss_mb) * 1048576.0 / static_cast<double>(spec.slots);
  m["traffic.past_vote_frac"] =
      paced.empty() ? 0.0 : static_cast<double>(past_vote) / static_cast<double>(paced.size());
  m["traffic.sessions_per_kevent"] =
      paced.empty() ? 0.0 : 1000.0 * static_cast<double>(opened) / static_cast<double>(paced.size());
  m["gen.late_p99_ms"] = percentile(late_ms, 0.99);

  auto& c = result.config;
  c["clusters"] = static_cast<double>(detector.cluster_count());
  c["hidden"] = static_cast<double>(model_hidden(spec.model));
  c["slots"] = static_cast<double>(spec.slots);
  c["cut"] = static_cast<double>(spec.cut);
  c["rate_eps"] = spec.rate;
  c["connections"] = static_cast<double>(kConnections);
  c["window"] = static_cast<double>(kWindow);
  c["node_cpus"] = static_cast<double>(opt.cpus.node.size());
  c["router_cpus"] = static_cast<double>(opt.cpus.router.size());
  c["rotate_cpus"] = static_cast<double>(opt.cpus.all.size());
  c["warmup_events"] = static_cast<double>(traffic.warmup_events());
  c["paced_events"] = static_cast<double>(paced_n);
  c["paced_s"] = paced_s;
  c["saturate_s"] = saturate_s;
  c["detect_normal"] = static_cast<double>(kDetectNormal);
  c["detect_misuse"] = static_cast<double>(kDetectMisuse);
  c["reference_steps_per_us"] = kReferenceStepsPerUs;
  auto& o = result.observed;
  o["saturate_events"] = static_cast<double>(sat.sent);
  o["detect_positives"] = static_cast<double>(detection.positives);
  o["detect_negatives"] = static_cast<double>(detection.negatives);
  o["scrapes"] = static_cast<double>(scrapes);
  o["scrape_failures"] = static_cast<double>(scrape_failures);
  o["setup_min_s"] = *std::min_element(setups.begin(), setups.end());
  o["setup_max_s"] = *std::max_element(setups.begin(), setups.end());
  o["clock_before_setup"] = clock_before_setup;
  o["clock_after_setup"] = clock_after_setup;
  o["clock_before_paced"] = clock_before_paced;
  o["clock_after_paced"] = clock_after_paced;
  o["clock_after_saturate"] = clock_after_saturate;

  if (opt.trace) {
    LayerConfig layer_config;
    if (spec.durable) layer_config.wal_dir = opt.build_dir + "/wal_" + spec.name + "_layers";
    layer_config.ring_node = "127.0.0.1:0";
    layer_config.trace_path = opt.build_dir + "/trace_" + spec.name + ".json";
    const double clock_before_layers = clock();
    const LayerSplit split = measure_layers(detector, warm, paced, layer_config);
    const double clock_after_layers = clock();
    const double layers_scale = clock_scale(clock_before_layers, clock_after_layers);
    if (spec.durable) fs::remove_all(layer_config.wal_dir);
    for (const auto& [name, value] : split.metrics) {
      m[name] = std::string(unit_of(name)) == "us" ? value * layers_scale : value;
    }
    // The in-process times average over every block the host ran, so the
    // node's CPU they are taken from is the median tick's, not the
    // least-slowed ticks' that node.cpu_us_per_event reports.
    m["frontend.us_per_event"] = median(tick_node_us) * saturate_scale - m["parse.us_per_event"] -
                                 m["server.us_per_event"];
    m["wait.us_p50"] = m["latency_p50_ms"] * 1e3 - split.inproc_p50_us * layers_scale;
    o["clock_before_layers"] = clock_before_layers;
    o["clock_after_layers"] = clock_after_layers;
    c["layer_timed_events"] = static_cast<double>(std::min(layer_config.timed, paced_n));
    o["layer_nesting_excess"] = split.worst_nesting_excess;
  }
  return result;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_metrics(const RunResult& r, bool trace) {
  for (const auto* defs : {&kEndToEnd, &kExtra, &kPerLayer}) {
    if (defs == &kPerLayer && !trace) continue;
    for (const MetricDef& d : *defs) {
      const auto it = r.metrics.find(d.name);
      if (it == r.metrics.end()) continue;
      std::cout << r.workload << " " << d.name << " " << number(it->second) << " " << d.unit << "\n";
    }
  }
  for (const auto& p : r.problems) std::cerr << "misusebench: " << r.workload << ": " << p << "\n";
}

void append_record(const std::string& path, const RunResult& r, const Options& opt) {
  fs::create_directories(fs::path(path).parent_path());
  std::ostringstream line;
  {
    JsonWriter json(line);
    json.begin_object();
    write_host_info(json);
    json.member("workload", r.workload);
    json.member("seed", static_cast<std::size_t>(opt.seed));
    json.member("seconds", opt.seconds);
    json.member("trace", opt.trace);
    json.member("infer", std::string(nn::infer::infer_mode_name(nn::infer::effective_infer_mode())));
    json.member("correct", r.correct);
    json.member("attempted", r.attempted);
    json.member("failed", r.failed);
    for (const auto& [key, block] : {std::pair{"config", &r.config}, std::pair{"observed", &r.observed}}) {
      json.key(key);
      json.begin_object();
      for (const auto& [k, v] : *block) json.member(k, v);
      json.end_object();
    }
    json.key("metrics");
    json.begin_object();
    for (const auto* defs : {&kEndToEnd, &kExtra, &kPerLayer}) {
      for (const MetricDef& d : *defs) {
        const auto it = r.metrics.find(d.name);
        if (it == r.metrics.end()) continue;
        json.key(d.name);
        json.begin_object();
        json.member("value", it->second);
        json.member("unit", std::string(d.unit));
        json.end_object();
      }
    }
    json.end_object();
    json.end_object();
  }
  std::ofstream out(path, std::ios::app);
  out << line.str() << "\n";
}

int run(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const CliArgs args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" && key != "smoke" &&
        key != "out" && key != "build-dir") {
      std::cerr << "misusebench: unknown flag --" << key << "\n";
      return 2;
    }
  }
  Options opt;
  const bool smoke = args.flag("smoke");
  opt.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  opt.seconds = smoke ? kSmokeSeconds : kRunSeconds;
  opt.trace = args.integer("trace", 0) != 0;
  opt.build_dir = args.str("build-dir", ".bench_build/misusebench");
  opt.cpus = split_cpus();
  const std::string out_path = args.str("out", opt.build_dir + "/runs.ndjson");
  // The run length is not a setting: harnesses that pass the length they
  // expect (BENCHMARK.json's run_seconds) must pass this one.
  if (args.has("seconds") && (smoke || args.real("seconds", 0.0) != kRunSeconds)) {
    std::cerr << "misusebench: the run length is fixed at " << kRunSeconds
              << " s; --seconds may only repeat it, and not with --smoke\n";
    return 2;
  }
  std::vector<const WorkloadSpec*> selected;
  if (args.has("workload") && !smoke) {
    const WorkloadSpec* spec = find_workload(args.str("workload"));
    if (spec == nullptr) {
      std::cerr << "misusebench: unknown workload '" << args.str("workload") << "' (";
      for (const auto& w : workloads()) std::cerr << " " << w.name;
      std::cerr << " )\n";
      return 2;
    }
    selected.push_back(spec);
  } else {
    for (const auto& w : workloads()) selected.push_back(&w);
  }

  set_global_threads(std::max(1u, std::thread::hardware_concurrency()));
  const Corpus corpus;
  std::vector<RunResult> results;
  for (const WorkloadSpec* spec : selected) {
    RunResult r;
    try {
      r = run_workload(corpus, *spec, opt);
    } catch (const std::exception& e) {
      std::cerr << "misusebench: " << spec->name << " failed: " << e.what() << "\n";
      return 1;
    }
    print_metrics(r, opt.trace);
    append_record(out_path, r, opt);
    results.push_back(std::move(r));
  }

  // Final line: one workload reports bare metric names (the contract the
  // BENCHMARK.json command follows); several prefix them with the workload.
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const RunResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const MetricDef& d : opt.trace ? kPerLayer : kEndToEnd) {
      const std::string name = results.size() == 1 ? d.name : r.workload + "." + d.name;
      const auto it = r.metrics.find(d.name);
      metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << number(it == r.metrics.end() ? 0.0 : it->second) << ", \"unit\": \"" << d.unit
              << "\"}";
      first = false;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {" << metrics.str() << "}}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace misusebench

int main(int argc, char** argv) { return misusebench::run(argc, argv); }
