#include "core/detector.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <optional>
#include <sstream>

#include "patterns/mining.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace misuse::core {

namespace {
constexpr std::uint32_t kDetectorMagic = 0x54444d53u;  // "SMDT"
constexpr std::uint32_t kDetectorVersion = 3;    // adds per-cluster quant markers
constexpr std::uint32_t kDetectorVersionV2 = 2;  // sections + CRC footer, no quant
constexpr std::uint32_t kDetectorVersionV1 = 1;  // pre-CRC, no fallbacks
constexpr std::uint32_t kFooterMagic = 0x46435243u;  // "CRCF"
constexpr std::uint64_t kMaxSectionBytes = 1ULL << 32;
/// Highest v3 quant marker ever written (2 = fp16); load skips the
/// section a non-zero marker announces.
constexpr std::uint8_t kMaxQuantMarker = 2;

std::vector<std::span<const int>> gather_sessions(const SessionStore& store,
                                                  const std::vector<std::size_t>& indices) {
  std::vector<std::span<const int>> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) out.push_back(store.at(i).view());
  return out;
}

/// Serializes one model into a length-prefixed, independently CRC'd
/// section, so bit-rot inside a single model is detected — and survivable
/// — without poisoning the rest of the archive.
template <typename Model>
void write_section(BinaryWriter& w, const Model& model) {
  std::ostringstream buffer(std::ios::binary);
  BinaryWriter section(buffer);
  model.save(section);
  const std::string bytes = buffer.str();
  w.write<std::uint64_t>(bytes.size());
  w.write_raw(bytes);
  w.write<std::uint32_t>(crc32(bytes));
}

/// Reads one section's raw payload; nullopt when the payload fails its
/// CRC (bit-rot) — structural failures (truncation) still throw.
std::optional<std::string> read_section(BinaryReader& r) {
  const auto n = r.read<std::uint64_t>();
  if (n > kMaxSectionBytes) throw SerializeError("implausible model-section length");
  std::string bytes = r.read_raw(static_cast<std::size_t>(n));
  const auto stored = r.read<std::uint32_t>();
  if (crc32(bytes) != stored) return std::nullopt;
  return bytes;
}

/// Parses a model out of a CRC-valid section payload; nullopt when the
/// payload does not decode (defense in depth past the checksum).
template <typename Model>
std::unique_ptr<Model> parse_section(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader section(in);
  try {
    return std::make_unique<Model>(Model::load(section));
  } catch (const SerializeError&) {
    return nullptr;
  }
}

/// Runs one load phase; a SerializeError escaping it is re-thrown with
/// the archive section named, so "unexpected end of stream" becomes
/// "section vocab: unexpected end of stream" — enough to tell *where*
/// the archive went bad, not just that it did.
template <typename Fn>
decltype(auto) load_phase(const std::string& section, Fn&& fn) {
  try {
    return fn();
  } catch (const SerializeError& e) {
    throw SerializeError("section " + section + ": " + e.what());
  }
}
}  // namespace

std::string label_cluster(const SessionStore& store, const std::vector<std::size_t>& members) {
  std::vector<const Session*> cluster_sessions;
  cluster_sessions.reserve(members.size());
  for (std::size_t i : members) cluster_sessions.push_back(&store.at(i));
  std::vector<const Session*> corpus;
  corpus.reserve(store.size());
  for (const auto& s : store.all()) corpus.push_back(&s);

  const auto chars = patterns::characteristic_actions(cluster_sessions, corpus, 2);
  if (chars.empty()) return "(empty)";
  std::string label = store.vocab().name(chars[0].action);
  if (chars.size() > 1) label += "+" + store.vocab().name(chars[1].action);
  return label;
}

MisuseDetector MisuseDetector::train(const SessionStore& store, const DetectorConfig& config) {
  assert(!store.empty());
  Span train_span("detector.train");
  MisuseDetector detector;
  detector.config_ = config;
  detector.vocab_ = store.vocab();
  const std::size_t vocab = store.vocab().size();
  Rng rng(config.seed);

  // Eligible sessions: the paper drops sessions with fewer than 2 actions
  // (no observed/predicted pair to learn from).
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.at(i).length() >= config.min_session_actions) eligible.push_back(i);
  }
  assert(!eligible.empty());

  // Step 1: LDA ensemble over the eligible sessions.
  std::vector<std::vector<int>> documents;
  documents.reserve(eligible.size());
  for (std::size_t i : eligible) documents.push_back(store.at(i).actions);
  const topics::LdaEnsemble ensemble = topics::LdaEnsemble::fit(documents, vocab, config.ensemble);
  log_info() << "LDA ensemble fitted: " << ensemble.topic_count() << " pooled topics in "
             << Table::num(train_span.seconds(), 1) << "s";

  // Step 2: headless expert -> behavior clusters.
  const cluster::ExpertPolicy expert(config.expert);
  const cluster::ClusteringResult clustering = [&] {
    Span span("expert.cluster");
    return expert.run(ensemble);
  }();

  // Step 3: per-cluster 70/15/15 splits (indices back into the store).
  for (std::size_t c = 0; c < clustering.cluster_count(); ++c) {
    ClusterInfo info;
    for (std::size_t doc : clustering.clusters[c]) info.members.push_back(eligible[doc]);
    const Split split = store.split(rng, config.train_frac, config.valid_frac, info.members);
    info.train = split.train;
    info.valid = split.valid;
    info.test = split.test;
    info.label = label_cluster(store, info.members);
    detector.clusters_.push_back(std::move(info));
  }
  // Order clusters by ascending size, matching the paper's presentation
  // (Figs. 4/5/10 sort clusters by size).
  std::stable_sort(detector.clusters_.begin(), detector.clusters_.end(),
                   [](const ClusterInfo& a, const ClusterInfo& b) { return a.size() < b.size(); });
  log_info() << "expert policy selected " << detector.clusters_.size() << " clusters";

  // Step 4: one OC-SVM per cluster on its training sessions.
  {
    std::vector<std::vector<std::span<const int>>> per_cluster;
    per_cluster.reserve(detector.clusters_.size());
    for (const auto& info : detector.clusters_) {
      per_cluster.push_back(gather_sessions(store, info.train));
    }
    cluster::AssignerConfig assigner_config = config.assigner;
    assigner_config.features.vocab = vocab;
    detector.assigner_ = std::make_unique<cluster::ClusterAssigner>(
        cluster::ClusterAssigner::train(per_cluster, assigner_config));
  }
  log_info() << "OC-SVMs trained (" << Table::num(train_span.seconds(), 1) << "s elapsed)";

  // Step 5: one LSTM language model per cluster. Each model's RNG stream
  // is derived from the task index (seed + 1000 + c) before the fan-out
  // and lives inside the model, so concurrent training touches no shared
  // mutable state and the weights are bit-identical to serial training.
  detector.models_.resize(detector.clusters_.size());
  detector.reports_.resize(detector.clusters_.size());
  {
    Span lm_span("lm.train");
    global_pool().parallel_for(0, detector.clusters_.size(), [&](std::size_t c) {
      Span cluster_span("lm.cluster_fit");
      const auto& info = detector.clusters_[c];
      lm::LmConfig lm_config = config.lm;
      lm_config.vocab = vocab;
      lm_config.seed = config.seed + 1000 + c;
      auto model = std::make_unique<lm::ActionLanguageModel>(lm_config);
      const auto train_sessions = gather_sessions(store, info.train);
      const auto valid_sessions = gather_sessions(store, info.valid);
      detector.reports_[c].epochs = model->fit(train_sessions, valid_sessions);
      detector.models_[c] = std::move(model);
    });
  }
  for (std::size_t c = 0; c < detector.clusters_.size(); ++c) {
    log_info() << "cluster " << c << " '" << detector.clusters_[c].label << "' model trained on "
               << detector.clusters_[c].train.size() << " sessions ("
               << Table::num(train_span.seconds(), 1) << "s elapsed)";
  }

  // Degraded-mode fallbacks: one Markov chain per cluster, fitted on the
  // same training split. Counting transitions is orders of magnitude
  // cheaper than the LSTM fit, and persisting the chain beside the LSTM
  // lets a corrupt LSTM section downgrade to it at load.
  detector.fallbacks_.resize(detector.clusters_.size());
  for (std::size_t c = 0; c < detector.clusters_.size(); ++c) {
    lm::MarkovConfig markov_config;
    markov_config.vocab = vocab;
    auto fallback = std::make_unique<lm::MarkovChainModel>(markov_config);
    const auto train_sessions = gather_sessions(store, detector.clusters_[c].train);
    fallback->fit(train_sessions);
    detector.fallbacks_[c] = std::move(fallback);
  }
  detector.degraded_.assign(detector.clusters_.size(), false);
  return detector;
}

std::size_t MisuseDetector::route(std::span<const int> actions) const {
  return assigner_->assign(actions);
}

MisuseDetector::Prediction MisuseDetector::predict(std::span<const int> actions) const {
  Prediction p;
  p.cluster = route(actions);
  p.score = score_with_cluster(p.cluster, actions);
  return p;
}

nn::NextActionModel::SessionScore MisuseDetector::score_with_cluster(
    std::size_t c, std::span<const int> actions) const {
  if (cluster_degraded(c)) return fallbacks_.at(c)->score_session(actions);
  return models_.at(c)->score_session(actions);
}

std::size_t MisuseDetector::degraded_cluster_count() const {
  return static_cast<std::size_t>(std::count(degraded_.begin(), degraded_.end(), true));
}

MisuseDetector::ClusterState MisuseDetector::make_cluster_state(std::size_t c) const {
  ClusterState state;
  if (cluster_degraded(c)) return state;
  state.use_engine = true;
  state.nn = models_.at(c)->make_state();
  return state;
}

void MisuseDetector::step_cluster_into(std::size_t c, ClusterState& state, int action,
                                       std::vector<float>& out) const {
  if (cluster_degraded(c)) {
    out = fallbacks_.at(c)->next_distribution(action);
    return;
  }
  models_.at(c)->network().step_into(state.nn, action, out);
}

void MisuseDetector::step_cluster_batch(std::size_t c, std::span<ClusterState* const> states,
                                        std::span<const int> actions,
                                        std::span<std::vector<float>* const> out) const {
  assert(states.size() == actions.size() && states.size() == out.size());
  if (cluster_degraded(c)) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      step_cluster_into(c, *states[i], actions[i], *out[i]);
    }
    return;
  }
  std::vector<nn::ModelState*> nn_states(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) nn_states[i] = &states[i]->nn;
  models_.at(c)->network().step_batch(nn_states, actions, out);
}

std::size_t MisuseDetector::cluster_rows_per_pass(std::size_t c) const {
  return cluster_degraded(c) ? 1 : models_.at(c)->network().rows_per_pass();
}

void MisuseDetector::materialize_cluster_dist(std::size_t c, const ClusterState& state,
                                              std::vector<float>& out) const {
  assert(!cluster_degraded(c));
  models_.at(c)->network().head_probs(state.nn, out);
}

void MisuseDetector::save(BinaryWriter& w) const {
  // A saved archive always carries healthy models (degraded detectors
  // re-saving would silently drop the LSTMs they no longer have).
  assert(degraded_cluster_count() == 0);
  w.begin_crc();
  w.write_magic(kDetectorMagic, kDetectorVersion);
  vocab_.save(w);
  w.write<std::uint64_t>(clusters_.size());
  for (const auto& info : clusters_) {
    w.write_string(info.label);
    w.write_vector(std::span<const std::size_t>(info.members));
    w.write_vector(std::span<const std::size_t>(info.train));
    w.write_vector(std::span<const std::size_t>(info.valid));
    w.write_vector(std::span<const std::size_t>(info.test));
  }
  assigner_->save(w);
  for (std::size_t c = 0; c < models_.size(); ++c) {
    write_section(w, *models_[c]);
    write_section(w, *fallbacks_.at(c));
    w.write<std::uint8_t>(0);  // v3 quant marker: no quantized section
  }
  // Whole-file footer: CRC over every byte written above, including the
  // footer magic itself, so any corruption the per-section checks cannot
  // localize (header, vocab, assigner) is still caught at load.
  w.write<std::uint32_t>(kFooterMagic);
  const std::uint32_t file_crc = w.crc();
  w.write<std::uint32_t>(file_crc);
}

MisuseDetector MisuseDetector::load(BinaryReader& r) {
  r.begin_crc();
  const std::uint32_t version = load_phase("header", [&] { return r.read_magic(kDetectorMagic); });
  if (version != kDetectorVersion && version != kDetectorVersionV2 &&
      version != kDetectorVersionV1) {
    throw SerializeError("unsupported detector archive version " + std::to_string(version) +
                         " (expected " + std::to_string(kDetectorVersion) + ")");
  }
  MisuseDetector detector;
  detector.vocab_ = load_phase("vocab", [&] { return ActionVocab::load(r); });
  const auto n = load_phase("cluster table", [&] {
    const auto count = static_cast<std::size_t>(r.read<std::uint64_t>());
    for (std::size_t c = 0; c < count; ++c) {
      ClusterInfo info;
      info.label = r.read_string();
      info.members = r.read_vector<std::size_t>();
      info.train = r.read_vector<std::size_t>();
      info.valid = r.read_vector<std::size_t>();
      info.test = r.read_vector<std::size_t>();
      detector.clusters_.push_back(std::move(info));
    }
    return count;
  });
  detector.assigner_ = load_phase("assigner", [&] {
    auto assigner = std::make_unique<cluster::ClusterAssigner>(cluster::ClusterAssigner::load(r));
    // Routing indexes the cluster table with OC-SVM argmaxes and the
    // featurizer with action ids, so both sizes must agree.
    if (assigner->cluster_count() != n) {
      throw SerializeError("OC-SVM count " + std::to_string(assigner->cluster_count()) +
                           " differs from the cluster table's " + std::to_string(n));
    }
    if (assigner->config().features.vocab != detector.vocab_.size()) {
      throw SerializeError("feature vocab " +
                           std::to_string(assigner->config().features.vocab) +
                           " differs from the action vocabulary's " +
                           std::to_string(detector.vocab_.size()));
    }
    return assigner;
  });
  detector.degraded_.assign(n, false);

  if (version == kDetectorVersionV1) {
    // Legacy archive: bare models, no fallbacks, no checksums. Corruption
    // here still surfaces as a SerializeError from the model parser.
    for (std::size_t c = 0; c < n; ++c) {
      load_phase("cluster " + std::to_string(c) + " LSTM", [&] {
        detector.models_.push_back(
            std::make_unique<lm::ActionLanguageModel>(lm::ActionLanguageModel::load(r)));
      });
    }
    detector.fallbacks_.resize(n);
    detector.reports_.resize(n);
    return detector;
  }

  std::size_t corrupt_sections = 0;
  detector.models_.resize(n);
  detector.fallbacks_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    auto lstm_bytes = load_phase("cluster " + std::to_string(c) + " LSTM",
                                 [&] { return read_section(r); });
    if (lstm_bytes && MISUSEDET_FAILPOINT("detector.load.lstm")) lstm_bytes.reset();
    if (lstm_bytes) detector.models_[c] = parse_section<lm::ActionLanguageModel>(*lstm_bytes);
    const auto markov_bytes = load_phase("cluster " + std::to_string(c) + " Markov fallback",
                                         [&] { return read_section(r); });
    if (markov_bytes) detector.fallbacks_[c] = parse_section<lm::MarkovChainModel>(*markov_bytes);

    if (detector.models_[c] == nullptr) {
      ++corrupt_sections;
      if (detector.fallbacks_[c] == nullptr) {
        throw SerializeError("cluster " + std::to_string(c) +
                             ": LSTM and Markov fallback sections both corrupt");
      }
      detector.degraded_[c] = true;
      log_warn() << "detector archive: cluster " << c
                 << " LSTM section corrupt; degrading to the Markov baseline";
    } else if (detector.fallbacks_[c] == nullptr) {
      // The LSTM survived; losing only the fallback costs redundancy, not
      // accuracy, so keep serving and say so.
      ++corrupt_sections;
      log_warn() << "detector archive: cluster " << c
                 << " Markov fallback section corrupt; no degraded cover for this cluster";
    }

    if (version >= kDetectorVersion) {
      const auto marker = load_phase("cluster " + std::to_string(c) + " quant marker", [&] {
        const auto byte = r.read<std::uint8_t>();
        if (byte > kMaxQuantMarker) {
          // The marker decides whether a section follows; with it gone we
          // cannot even find the next cluster, so this is unrecoverable.
          throw SerializeError("unknown quantization marker " + std::to_string(byte));
        }
        return byte;
      });
      // A legacy quantized-weights section: scoring never reads it, so it
      // is only checked and skipped. Bit-rot in it is localized damage the
      // footer check must tolerate, like any other corrupt section.
      if (marker != 0) {
        const auto quant_bytes = load_phase("cluster " + std::to_string(c) + " quantized weights",
                                            [&] { return read_section(r); });
        if (!quant_bytes) {
          ++corrupt_sections;
          log_warn() << "detector archive: cluster " << c
                     << " quantized section corrupt; it is unused, ignoring it";
        }
      }
    }
  }

  load_phase("footer", [&] {
    const std::uint32_t footer_magic = r.read<std::uint32_t>();
    if (footer_magic != kFooterMagic) throw SerializeError("missing detector archive CRC footer");
    const std::uint32_t computed_crc = r.crc();
    const std::uint32_t stored_crc = r.read<std::uint32_t>();
    if (computed_crc != stored_crc && corrupt_sections == 0) {
      // Bit-rot outside the model sections (header/vocab/assigner) cannot
      // be repaired — refuse rather than score with a silently wrong model.
      throw SerializeError("detector archive CRC mismatch outside model sections");
    }
  });
  detector.reports_.resize(n);  // training history is not persisted
  return detector;
}

MisuseDetector MisuseDetector::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializeError("detector archive '" + path + "': cannot open file");
  BinaryReader reader(in);
  try {
    return load(reader);
  } catch (const SerializeError& e) {
    throw SerializeError("detector archive '" + path + "': " + e.what());
  }
}

std::vector<double> MisuseDetector::training_action_counts() const {
  std::vector<double> counts;
  for (const auto& fallback : fallbacks_) {
    if (fallback == nullptr) return {};  // v1 archive: no reference available
    const auto freq = fallback->action_frequencies();
    if (counts.empty()) counts.assign(freq.size(), 0.0);
    assert(freq.size() == counts.size());
    for (std::size_t i = 0; i < freq.size(); ++i) counts[i] += freq[i];
  }
  return counts;
}

}  // namespace misuse::core
