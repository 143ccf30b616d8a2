// misusebench traffic: the four workloads, the detector archives they
// score with, the seeded NDJSON event stream the generator sends, and the
// fixed evaluation set detection quality is scored on.
//
// Sessions live in fixed slots; events go round-robin across the slots,
// so in steady state the event mix equals the trace's step mix. Each slot
// is pinned to one client connection, so a session stays on one
// connection, in order. Event time advances 0.5 s per event.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "sessions/store.hpp"
#include "synth/portal.hpp"
#include "util/rng.hpp"

namespace misusebench {

struct WorkloadSpec {
  std::string name;
  std::string model;       // "paper" (hidden 256) or "small" (hidden 16)
  std::size_t slots = 0;   // concurrently open sessions
  std::size_t cut = 0;     // truncate every session to this many actions; 0 = keep
  double rate = 0.0;       // paced phase, events/second
  bool durable = false;    // node runs with --wal-dir and --admin-port
  std::string why;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

constexpr std::size_t kConnections = 3;  // event connections to the router
constexpr double kMisuseFraction = 0.05;
constexpr double kEventSeconds = 0.5;    // event-time step between events

/// The corpus every workload draws from: Portal{15000 sessions, 1400
/// users, 300 actions, seed 42}. Training uses the chronologically first
/// 3000 sessions; live traffic the held-out sessions 10500..14999.
struct Corpus {
  Corpus();
  misuse::synth::Portal portal;
  misuse::SessionStore store;
  std::vector<std::size_t> held_out;  // store indices with >= 2 actions
};

/// LSTM hidden size of a workload's detector: "paper" (the paper's 256)
/// or "small" (16).
std::size_t model_hidden(const std::string& model);

/// Trains (or loads from `dir`) paper.bin and small.bin. The archives are
/// keyed to the running binary, so a rebuilt benchmark retrains with the
/// code it was built from. Returns the path of the requested archive.
std::string prepare_model(const Corpus& corpus, const std::string& dir, const std::string& model);

/// One generated event: the NDJSON line and what the verdict must echo.
struct LiveEvent {
  std::string line;
  std::size_t index = 0;   // position in the global event order
  std::uint32_t step = 0;  // 1-based position in the session
  std::uint8_t conn = 0;
};

class Traffic {
 public:
  Traffic(const Corpus& corpus, const WorkloadSpec& spec, std::uint64_t seed);

  /// The next event in global (slot round-robin) order.
  LiveEvent next();

  /// Events in one full turnover of the slots: slots x mean length.
  std::size_t warmup_events() const { return warmup_events_; }
  std::size_t events_generated() const { return events_; }

 private:
  struct Slot {
    const std::vector<int>* actions = nullptr;
    std::string user_id;
    std::string session_id;
    std::size_t pos = 0;
  };

  void open(Slot& slot);

  const Corpus& corpus_;
  WorkloadSpec spec_;
  std::vector<std::vector<int>> pool_;     // held-out sessions, cut when the spec says so
  std::vector<std::uint32_t> pool_users_;
  std::vector<std::unique_ptr<std::vector<int>>> misuse_;  // stable addresses
  misuse::Rng rng_;
  std::vector<std::size_t> order_;  // pool_ in a seeded order, drawn from order_cursor_
  std::size_t order_cursor_ = 0;
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
  std::size_t sessions_opened_ = 0;
  std::size_t events_ = 0;
  std::size_t warmup_events_ = 0;
};

/// Detection quality of `detector` on a fixed evaluation set, the same for
/// every seed: kDetectNormal held-out sessions spread evenly over the pool,
/// and kDetectMisuse sessions from Portal::make_misuse (every kind in turn,
/// from a fixed seed), both cut as the workload cuts its traffic. Each
/// session is scored by its mean voted likelihood under the node's default
/// MonitorConfig (core::monitor_sessions, the batch path of the scoring the
/// node runs per event); misuse sessions are the positives.
struct Detection {
  double auc = 0.0;           // core::anomaly_auc
  double rate_at_5fpr = 0.0;  // share of misuse sessions flagged when 5% of normal ones are
  std::size_t positives = 0;
  std::size_t negatives = 0;
};
constexpr std::size_t kDetectNormal = 600;
constexpr std::size_t kDetectMisuse = 200;
Detection score_detection(const Corpus& corpus, const WorkloadSpec& spec,
                          const misuse::core::MisuseDetector& detector);

}  // namespace misusebench
