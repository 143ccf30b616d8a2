// Streaming-forward throughput record (writes BENCH_inference.json).
// Not a paper figure: this is the perf contract for the scoring hot
// path — NextActionModel::step_into through the kernel tables
// (nn/infer/) against the training-grade layer-by-layer forward the
// scalar table must stay bit-identical to.
//
// Two families:
//   * model_step — one LSTM+head forward per action: the layer-by-layer
//     forward (Lstm::step, Dense::infer, softmax_row), then step_into per
//     kernel mode (scalar, and avx2 if this host supports it).
//   * monitor_path — the full OnlineMonitor scoring path (routing,
//     likelihood voting, alarms) per event, comparing the per-event
//     observe() loop against observe_batch's fused per-cluster steps
//     under each kernel mode. This is the speedup the streaming server
//     actually sees (single core).
//
// Timings are best-of-5 wall clock; outputs under scalar are
// bit-identical to the layer-by-layer forward by the kernels' contract,
// so only time may differ across rows.
//
//   ./bench/bench_inference [--out=BENCH_inference.json] [--reduced]
//
// --reduced shrinks the workloads — the CI smoke configuration, which
// cares about "runs and writes valid JSON", not the timings.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "nn/infer/dispatch.hpp"
#include "nn/next_action_model.hpp"
#include "tensor/ops.hpp"
#include "synth/portal.hpp"
#include "util/cli.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace misuse {
namespace {

constexpr int kRepetitions = 5;

template <typename Fn>
double best_of(const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < kRepetitions; ++r) {
    Timer timer;
    fn();
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct Row {
  std::string mode;
  std::size_t steps = 0;
  double seconds = 0.0;
  double actions_per_sec() const { return seconds > 0.0 ? steps / seconds : 0.0; }
};

// --- model_step: one forward per action --------------------------------

std::vector<int> random_actions(std::size_t n, std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> actions(n);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_index(vocab));
  return actions;
}

Row time_reference_step(const nn::NextActionModel& model, const std::vector<int>& actions) {
  nn::LstmState state(1, model.config().hidden);
  Matrix gates, logits;
  std::vector<float> probs(model.config().vocab);
  std::vector<int> token(1);
  const double seconds = best_of([&] {
    state.reset();
    for (const int a : actions) {
      token[0] = a;
      model.layer(0).step_scratch(token, state, gates);
      model.head().infer(state.h, logits);
      (void)softmax_row(logits.row(0), probs);
    }
  });
  return {"reference_step", actions.size(), seconds};
}

Row time_model_step(const std::string& mode, const nn::NextActionModel& model,
                    const std::vector<int>& actions) {
  nn::ModelState state = model.make_state();
  std::vector<float> probs;
  const double seconds = best_of([&] {
    state.reset();
    for (const int a : actions) model.step_into(state, a, probs);
  });
  return {mode, actions.size(), seconds};
}

// --- monitor_path: the full scoring pipeline per event -----------------

core::MisuseDetector train_detector(bool reduced) {
  synth::PortalConfig portal_config;
  portal_config.sessions = reduced ? 120 : 220;
  portal_config.action_count = 60;
  portal_config.seed = 42;
  const synth::Portal portal(portal_config);
  const SessionStore store = portal.generate();
  core::DetectorConfig config;
  config.ensemble.topic_counts = {10, 13};
  config.ensemble.iterations = 8;
  config.expert.target_clusters = 4;
  config.expert.min_cluster_sessions = 5;
  config.lm.hidden = reduced ? 8 : 128;
  config.lm.epochs = 2;
  config.lm.patience = 0;
  return core::MisuseDetector::train(store, config);
}

// Per-event loop: one observe() per monitor per step — what the session table did
// without batching. One timed pass; the caller interleaves passes across
// variants.
double monitor_per_event_pass(const core::MisuseDetector& detector,
                              const std::vector<std::vector<int>>& streams) {
  const std::size_t steps_per = streams.front().size();
  Timer timer;
  std::vector<core::OnlineMonitor> monitors;
  monitors.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    monitors.emplace_back(detector, core::MonitorConfig{});
  }
  for (std::size_t t = 0; t < steps_per; ++t) {
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      (void)monitors[i].observe(streams[i][t]);
    }
  }
  return timer.seconds();
}

// Batched loop: one observe_batch per step across all live sessions —
// what SessionShard::process_batch does on the server's hot path.
double monitor_batched_pass(const core::MisuseDetector& detector,
                            const std::vector<std::vector<int>>& streams) {
  const std::size_t steps_per = streams.front().size();
  Timer timer;
  std::vector<std::unique_ptr<core::OnlineMonitor>> monitors;
  std::vector<core::OnlineMonitor*> ptrs;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    monitors.push_back(std::make_unique<core::OnlineMonitor>(detector, core::MonitorConfig{}));
    ptrs.push_back(monitors.back().get());
  }
  std::vector<int> actions(streams.size());
  std::vector<core::OnlineMonitor::StepResult> results(streams.size());
  for (std::size_t t = 0; t < steps_per; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i) actions[i] = streams[i][t];
    core::OnlineMonitor::observe_batch(detector, ptrs, actions, results);
  }
  return timer.seconds();
}

}  // namespace
}  // namespace misuse

int main(int argc, char** argv) {
  using namespace misuse;
  using nn::infer::InferMode;
  const CliArgs args(argc, argv);
  const bool reduced = args.flag("reduced");
  const std::string out_path = args.str("out", "BENCH_inference.json");
  // Single-core: the kernels' win must not depend on the pool.
  set_global_threads(1);

  // --- model_step workload ---
  nn::ModelConfig model_config;
  model_config.vocab = 50;
  model_config.hidden = reduced ? 64 : 256;
  Rng model_rng(7);
  const nn::NextActionModel model(model_config, model_rng);
  const auto actions = random_actions(reduced ? 400 : 4000, model_config.vocab, 11);

  std::vector<Row> model_rows;
  model_rows.push_back(time_reference_step(model, actions));
  nn::infer::set_infer_mode(InferMode::kScalar);
  model_rows.push_back(time_model_step("scalar", model, actions));
  if (nn::infer::avx2_supported()) {
    nn::infer::set_infer_mode(InferMode::kAvx2);
    model_rows.push_back(time_model_step("avx2", model, actions));
  }

  // --- monitor_path workload ---
  const core::MisuseDetector detector = train_detector(reduced);
  const std::size_t n_sessions = 64;
  const std::size_t session_len = reduced ? 16 : 48;
  std::vector<std::vector<int>> streams(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    streams[i] = random_actions(session_len, detector.vocab().size(), 100 + i);
  }

  // The monitor-path variants are compared against each other, so their
  // repetitions are interleaved round-robin: host clock-speed drift over
  // the run (turbo, shared containers) then lands on every variant
  // instead of biasing whichever family ran first.
  struct MonitorVariant {
    std::string mode;
    InferMode infer;
    bool batched;
  };
  std::vector<MonitorVariant> variants = {
      {"per_event_scalar", InferMode::kScalar, false},
      {"batched_scalar", InferMode::kScalar, true},
  };
  if (nn::infer::avx2_supported()) {
    variants.push_back({"batched_avx2", InferMode::kAvx2, true});
  }
  std::vector<Row> monitor_rows;
  const std::size_t monitor_steps = n_sessions * session_len;
  for (const auto& v : variants) monitor_rows.push_back({v.mode, monitor_steps, 0.0});
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      nn::infer::set_infer_mode(variants[i].infer);
      const double s = variants[i].batched ? monitor_batched_pass(detector, streams)
                                           : monitor_per_event_pass(detector, streams);
      if (rep == 0 || s < monitor_rows[i].seconds) monitor_rows[i].seconds = s;
    }
  }
  nn::infer::set_infer_mode(InferMode::kAuto);

  const double ref_step = model_rows.front().actions_per_sec();
  const double ref_monitor = monitor_rows.front().actions_per_sec();

  std::ofstream out(out_path);
  JsonWriter json(out);
  json.begin_object();
  json.member("hardware_concurrency",
              static_cast<std::size_t>(std::thread::hardware_concurrency()));
  write_host_info(json);
  json.member("reduced", reduced);
  json.member("avx2_supported", nn::infer::avx2_supported());
  json.member("note",
              "Single-core actions/sec. model_step times NextActionModel::step_into per kernel "
              "mode against the layer-by-layer forward (Lstm::step, Dense::infer, "
              "softmax_row); monitor_path times the full OnlineMonitor pipeline, per-event "
              "loop vs observe_batch fusion. speedup_vs_reference is actions_per_sec over the "
              "family's first row (reference_step, per_event_scalar). The scalar rows are "
              "bit-identical to the layer-by-layer forward by contract; avx2 rows trade "
              "exactness for throughput (opt-in).");
  json.key("model_step");
  json.begin_array();
  for (const auto& r : model_rows) {
    json.begin_object();
    json.member("mode", r.mode);
    json.member("hidden", static_cast<std::size_t>(model_config.hidden));
    json.member("steps", r.steps);
    json.member("seconds", r.seconds);
    json.member("actions_per_sec", r.actions_per_sec());
    json.member("speedup_vs_reference", ref_step > 0.0 ? r.actions_per_sec() / ref_step : 0.0);
    json.end_object();
  }
  json.end_array();
  json.key("monitor_path");
  json.begin_array();
  for (const auto& r : monitor_rows) {
    json.begin_object();
    json.member("mode", r.mode);
    json.member("sessions", n_sessions);
    json.member("steps", r.steps);
    json.member("seconds", r.seconds);
    json.member("actions_per_sec", r.actions_per_sec());
    json.member("speedup_vs_reference",
                ref_monitor > 0.0 ? r.actions_per_sec() / ref_monitor : 0.0);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  for (const auto& r : monitor_rows) {
    std::cout << "monitor " << r.mode << ": " << r.actions_per_sec() << " actions/s ("
              << (ref_monitor > 0.0 ? r.actions_per_sec() / ref_monitor : 0.0) << "x)\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
