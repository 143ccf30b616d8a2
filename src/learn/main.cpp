// misusedet_learnd — the continuous-learning daemon (DESIGN.md
// "Continuous learning"). Tails a serve node's WAL directory (or replays
// an NDJSON event file) into the session-window collector, periodically
// fine-tunes a candidate from the active registry version, publishes it
// staging→canary (nudging the serve node's reloader via SIGHUP so its
// shadow scorer follows), shadow-evaluates it on held-out windows, and
// applies the guarded promotion policy. Every decision is one flat-JSON
// audit line (also echoed to stdout) and the live state lands in
// <registry>/LEARN_STATUS for /statusz and misusedet_top.
//
// Replay mode is the determinism contract: with a fixed seed and a fixed
// input, two runs produce byte-identical candidate archives, decisions,
// and audit logs. Each positional FILE is one input segment; after each
// segment the daemon flushes the collector, runs the drift watch, and —
// while under --max-cycles — one training cycle.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "core/observability.hpp"
#include "learn/loop.hpp"
#include "serve/wal.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

void usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --registry=DIR [FILE...] [--wal-dir=DIR]\n"
               "  input (pick one):\n"
               "    FILE...                  NDJSON event segments, replayed in order ('-' = stdin)\n"
               "    --wal-dir=DIR            tail a live serve node's WAL directory\n"
               "  loop:\n"
               "    --min-train-windows=N    buffered windows needed to train (default 32)\n"
               "    --max-cycles=N           training cycles to run, 0 = unlimited (default 0)\n"
               "    --once                   exit after the first non-skip decision (tail mode)\n"
               "    --poll-ms=N              WAL poll interval (default 200)\n"
               "    --idle-exit-ms=N         tail mode: exit after N ms without records (default 0 = never)\n"
               "    --serve-pid=PID          SIGHUP this pid after each registry change\n"
               "  trainer:\n"
               "    --epochs=N --learning-rate=F --min-cluster-sessions=N --seed=N\n"
               "  collector:\n"
               "    --gap-seconds=F --buffer-windows=N --eval-every=N --max-alarm-steps=N\n"
               "  policy:\n"
               "    --eval-budget=N --max-flip-rate=F --max-loss-delta=F\n"
               "    --drift-margin=F --rollback-drift-margin=F --watch-min-windows=N\n"
               "  output:\n"
               "    --audit=PATH --status=PATH --note=STR --metrics-out=PATH\n",
               program);
}

/// Every flag main reads. CliArgs folds "--no-X" into key "X", so negated
/// flags are listed under their positive name.
constexpr std::string_view kKnownFlags[] = {
    // Usage, registry and input.
    "help", "registry", "wal-dir",
    // Loop.
    "min-train-windows", "max-cycles", "once", "poll-ms", "idle-exit-ms", "serve-pid",
    // Trainer.
    "epochs", "learning-rate", "min-cluster-sessions", "seed",
    // Collector.
    "gap-seconds", "buffer-windows", "eval-every", "max-alarm-steps",
    // Policy.
    "eval-budget", "max-flip-rate", "max-loss-delta", "drift-margin", "rollback-drift-margin",
    "watch-min-windows",
    // Output.
    "audit", "status", "note", "metrics-out",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace misuse;
  CliArgs args(argc, argv);
  if (const auto unknown = args.unknown_flag(kKnownFlags)) {
    std::fprintf(stderr, "misusedet_learnd: unknown flag --%s (see --help)\n", unknown->c_str());
    return 2;
  }
  const std::string registry_root = args.str("registry");
  if (registry_root.empty() || args.flag("help")) {
    usage(args.program().c_str());
    return registry_root.empty() ? 2 : 0;
  }

  learn::LearnLoopConfig config;
  config.trainer.epochs = static_cast<std::size_t>(args.integer("epochs", 2));
  config.trainer.learning_rate = static_cast<float>(args.real("learning-rate", 2e-4));
  config.trainer.min_cluster_sessions =
      static_cast<std::size_t>(args.integer("min-cluster-sessions", 8));
  config.trainer.seed = static_cast<std::uint64_t>(args.integer("seed", 97));
  config.collector.gap_seconds = args.real("gap-seconds", 900.0);
  config.collector.buffer_windows = static_cast<std::size_t>(args.integer("buffer-windows", 512));
  config.collector.eval_every = static_cast<std::size_t>(args.integer("eval-every", 5));
  config.collector.max_alarm_steps =
      static_cast<std::size_t>(args.integer("max-alarm-steps", 0));
  config.policy.eval_budget_steps = static_cast<std::size_t>(args.integer("eval-budget", 500));
  config.policy.max_flip_rate = args.real("max-flip-rate", 0.02);
  config.policy.max_loss_delta = args.real("max-loss-delta", 0.05);
  config.policy.drift_margin = args.real("drift-margin", 0.005);
  config.policy.rollback_drift_margin = args.real("rollback-drift-margin", 0.01);
  config.min_train_windows = static_cast<std::size_t>(args.integer("min-train-windows", 32));
  config.watch_min_windows = static_cast<std::size_t>(args.integer("watch-min-windows", 8));
  if (args.has("note")) config.note = args.str("note");

  core::MetricsExport metrics_export(args.str("metrics-out"));
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  try {
    learn::LearnLoop loop(registry_root, config, args.str("audit"), args.str("status"));

    const long serve_pid = args.integer("serve-pid", 0);
    if (serve_pid > 0) {
      loop.set_registry_change_hook([serve_pid](std::string_view what) {
        log_info() << "registry " << what << "; SIGHUP -> " << serve_pid;
        kill(static_cast<pid_t>(serve_pid), SIGHUP);
      });
    }

    const std::uint64_t max_cycles = static_cast<std::uint64_t>(args.integer("max-cycles", 0));
    const auto cycle_allowed = [&] { return max_cycles == 0 || loop.cycles() < max_cycles; };
    const auto emit = [](const learn::AuditRecord& record) {
      std::fputs(learn::render_audit_record(record).c_str(), stdout);
      std::fflush(stdout);
    };

    const std::string wal_dir = args.str("wal-dir");
    if (!wal_dir.empty()) {
      // -- Tail mode: follow a live serve node ------------------------------
      serve::WalTailer tailer(wal_dir);
      const auto poll_interval =
          std::chrono::milliseconds(args.integer("poll-ms", 200));
      const long idle_exit_ms = args.integer("idle-exit-ms", 0);
      const bool once = args.flag("once");
      long idle_ms = 0;
      std::vector<serve::WalRecord> records;
      while (g_stop == 0) {
        records.clear();
        if (tailer.poll(records) == 0) {
          idle_ms += static_cast<long>(poll_interval.count());
          if (idle_exit_ms > 0 && idle_ms >= idle_exit_ms) break;
          std::this_thread::sleep_for(poll_interval);
        } else {
          idle_ms = 0;
          for (const auto& record : records) loop.observe(record);
        }
        if (auto rollback = loop.watch()) emit(*rollback);
        if (cycle_allowed() && loop.collector().buffered_windows() >= config.min_train_windows) {
          const learn::AuditRecord record = loop.run_cycle();
          emit(record);
          if (once && record.reason != "insufficient_windows") break;
        }
      }
      // Drain: close what remains so the final state reflects the stream,
      // then train on it — a stream that went idle (or a short replayed
      // WAL) may hold a full buffer of windows the in-loop check never
      // saw closed, exactly like a replay segment ending.
      loop.flush();
      if (auto rollback = loop.watch()) emit(*rollback);
      if (cycle_allowed() && loop.collector().buffered_windows() >= config.min_train_windows) {
        emit(loop.run_cycle());
      }
      return 0;
    }

    // -- Replay mode: positional NDJSON segments ----------------------------
    std::vector<std::string> segments = args.positional();
    if (segments.empty()) {
      usage(args.program().c_str());
      return 2;
    }
    for (const auto& segment : segments) {
      std::ifstream file;
      std::istream* in = &std::cin;
      if (segment != "-") {
        file.open(segment);
        if (!file) {
          log_error() << "cannot open " << segment;
          return 1;
        }
        in = &file;
      }
      std::string line;
      std::string error;
      while (std::getline(*in, line)) {
        if (line.empty()) continue;
        serve::Event event;
        if (!serve::parse_event(line, event, error)) {
          log_warn() << "skipping bad event line: " << error;
          continue;
        }
        loop.observe(event);
      }
      loop.flush();
      if (auto rollback = loop.watch()) emit(*rollback);
      if (cycle_allowed()) emit(loop.run_cycle());
    }
    return 0;
  } catch (const std::exception& e) {
    log_error() << "learnd: " << e.what();
    return 1;
  }
}
