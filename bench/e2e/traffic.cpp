#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "core/monitor.hpp"
#include "serve/server.hpp"
#include "util/serialize.hpp"

namespace misusebench {

namespace fs = std::filesystem;
using namespace misuse;

// Paced rates are about a quarter of the saturated throughput measured
// when the benchmark was introduced (see README.md), and stay frozen so a
// later commit is paced exactly like its parent.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"paper_mix", "paper", 256, 0, 300.0, false,
       "paper-size LSTMs on the portal length law: model-bound, shows inference and monitor work"},
      {"paper_short", "paper", 1024, 15, 300.0, false,
       "sessions cut at the 15-action vote window, 4x the open sessions: bypasses post-vote work"},
      {"small_mix", "small", 256, 0, 2000.0, false,
       "hidden-16 LSTMs: parse, render, OC-SVM, front end and router carry most of the time"},
      {"small_durable", "small", 256, 0, 2000.0, true,
       "small_mix with the node's WAL and a 1 Hz /metrics scrape: writes beside reads"},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::size_t kTrainSessions = 3000;
constexpr std::size_t kHeldOutBegin = 10500;
constexpr std::size_t kHeldOutEnd = 15000;
// The evaluation set is the same for every --seed, so the detection
// metrics are a property of the commit, not of the seed.
constexpr std::uint64_t kEvaluationSeed = 0x5eed0e7a1ULL;

std::vector<int> cut_to(std::vector<int> actions, std::size_t cut) {
  if (cut > 0 && actions.size() > cut) actions.resize(cut);
  return actions;
}

synth::PortalConfig portal_config() {
  synth::PortalConfig config;
  config.sessions = 15000;
  config.users = 1400;
  config.action_count = 300;
  config.seed = 42;
  return config;
}

core::DetectorConfig detector_config(std::size_t hidden) {
  core::DetectorConfig config;
  config.ensemble.topic_counts = {10, 13};
  config.ensemble.iterations = 20;
  config.expert.target_clusters = 13;
  config.lm.hidden = hidden;
  config.lm.epochs = 1;
  config.lm.patience = 0;
  return config;
}

/// Size and mtime of the running binary: archives trained by another
/// build of the benchmark (and so of the product) are not reused.
std::string binary_stamp() {
  const fs::path self = fs::canonical("/proc/self/exe");
  return std::to_string(fs::file_size(self)) + ":" +
         std::to_string(fs::last_write_time(self).time_since_epoch().count());
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  return text;
}

void write_atomically(const fs::path& path, const std::string& text) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

}  // namespace

Corpus::Corpus() : portal(portal_config()), store(portal.generate()) {
  for (std::size_t i = kHeldOutBegin; i < std::min(kHeldOutEnd, store.size()); ++i) {
    if (store.at(i).length() >= 2) held_out.push_back(i);
  }
}

std::size_t model_hidden(const std::string& model) { return model == "paper" ? 256 : 16; }

std::string prepare_model(const Corpus& corpus, const std::string& dir, const std::string& model) {
  const fs::path root(dir);
  fs::create_directories(root);
  const fs::path path = root / (model + ".bin");
  const fs::path stamp_path = root / (model + ".stamp");
  const std::string stamp = binary_stamp();
  if (fs::exists(path) && read_text(stamp_path) == stamp) return path.string();

  const std::size_t hidden = model_hidden(model);
  SessionStore train(corpus.store.vocab());
  for (std::size_t i = 0; i < std::min(kTrainSessions, corpus.store.size()); ++i) {
    train.add(corpus.store.at(i));
  }
  std::cerr << "misusebench: training " << model << ".bin (hidden " << hidden << ")\n";
  const core::MisuseDetector detector = core::MisuseDetector::train(train, detector_config(hidden));
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    BinaryWriter writer(out);
    detector.save(writer);
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
  write_atomically(stamp_path, stamp);
  return path.string();
}

Traffic::Traffic(const Corpus& corpus, const WorkloadSpec& spec, std::uint64_t seed)
    : corpus_(corpus), spec_(spec), rng_(seed), slots_(spec.slots) {
  double total = 0.0;
  for (const std::size_t i : corpus.held_out) {
    const Session& s = corpus.store.at(i);
    pool_.push_back(cut_to(s.actions, spec.cut));
    pool_users_.push_back(s.user);
    total += static_cast<double>(pool_.back().size());
  }
  if (pool_.empty()) throw std::runtime_error("no held-out sessions to replay");
  warmup_events_ =
      static_cast<std::size_t>(std::llround(static_cast<double>(spec.slots) * total /
                                            static_cast<double>(pool_.size())));
}

void Traffic::open(Slot& slot) {
  std::uint32_t user = 0;
  if (rng_.bernoulli(kMisuseFraction)) {
    const auto kind = static_cast<synth::MisuseKind>(
        rng_.uniform_index(static_cast<std::size_t>(synth::MisuseKind::kCount)));
    Session session = corpus_.portal.make_misuse(kind, rng_);
    misuse_.push_back(std::make_unique<std::vector<int>>(cut_to(std::move(session.actions), spec_.cut)));
    slot.actions = misuse_.back().get();
    user = static_cast<std::uint32_t>(rng_.uniform_index(corpus_.portal.config().users));
  } else {
    if (order_cursor_ == order_.size()) {
      order_.resize(pool_.size());
      for (std::size_t i = 0; i < pool_.size(); ++i) order_[i] = i;
      rng_.shuffle(order_);
      order_cursor_ = 0;
    }
    const std::size_t i = order_[order_cursor_++];
    slot.actions = &pool_[i];
    user = pool_users_[i];
  }
  slot.pos = 0;
  // insert() rather than "u" + ...: GCC 12 misreports the latter (-Wrestrict).
  slot.user_id = std::to_string(user);
  slot.user_id.insert(0, 1, 'u');
  slot.session_id = std::to_string(sessions_opened_++);
  slot.session_id.insert(0, 1, 's');
}

LiveEvent Traffic::next() {
  Slot& slot = slots_[cursor_];
  LiveEvent event;
  event.conn = static_cast<std::uint8_t>(cursor_ % kConnections);
  cursor_ = (cursor_ + 1) % slots_.size();
  if (slot.actions == nullptr || slot.pos == slot.actions->size()) open(slot);
  const int action = (*slot.actions)[slot.pos++];
  event.index = events_;
  event.step = static_cast<std::uint32_t>(slot.pos);
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%.1f", static_cast<double>(events_) * kEventSeconds);
  event.line.reserve(96);
  event.line += "{\"user_id\":\"";
  event.line += slot.user_id;
  event.line += "\",\"session_id\":\"";
  event.line += slot.session_id;
  event.line += "\",\"action\":\"";
  event.line += corpus_.portal.vocab().name(action);
  event.line += "\",\"timestamp\":";
  event.line += stamp;
  event.line += '}';
  ++events_;
  return event;
}

Detection score_detection(const Corpus& corpus, const WorkloadSpec& spec,
                          const core::MisuseDetector& detector) {
  std::vector<std::vector<int>> sessions;
  const std::size_t pool = corpus.held_out.size();
  for (std::size_t i = 0; i < kDetectNormal && i < pool; ++i) {
    sessions.push_back(cut_to(corpus.store.at(corpus.held_out[i * pool / kDetectNormal]).actions, spec.cut));
  }
  const std::size_t normal = sessions.size();
  Rng rng(kEvaluationSeed);
  const auto kinds = static_cast<std::size_t>(synth::MisuseKind::kCount);
  for (std::size_t i = 0; i < kDetectMisuse; ++i) {
    const auto kind = static_cast<synth::MisuseKind>(i % kinds);
    sessions.push_back(cut_to(corpus.portal.make_misuse(kind, rng).actions, spec.cut));
  }
  std::vector<std::span<const int>> views(sessions.begin(), sessions.end());
  const auto reports = core::monitor_sessions(detector, serve::ServeConfig{}.monitor, views);

  // Lower likelihood means more anomalous; sessions with no scored step
  // (a single action) carry no score.
  std::vector<double> negative;
  std::vector<double> positive;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].steps < 2) continue;
    (i < normal ? negative : positive).push_back(reports[i].avg_likelihood_voted);
  }
  Detection d;
  d.positives = positive.size();
  d.negatives = negative.size();
  if (positive.empty() || negative.empty()) return d;
  d.auc = core::anomaly_auc(negative, positive);
  // Flag below the likelihood that at most 5% of normal sessions fall under.
  std::sort(negative.begin(), negative.end());
  const auto allowed = static_cast<std::size_t>(std::floor(0.05 * static_cast<double>(negative.size())));
  const double threshold = negative[allowed];
  const auto flagged = std::count_if(positive.begin(), positive.end(),
                                     [threshold](double p) { return p < threshold; });
  d.rate_at_5fpr = static_cast<double>(flagged) / static_cast<double>(positive.size());
  return d;
}

}  // namespace misusebench
