// MisuseDetector::fine_tune — the incremental-retraining half of the
// continuous-learning loop (src/learn). The paper notes the training
// phase "can be repeated at any moment if security experts notice
// sufficient drift"; a full repeat reruns LDA + expert clustering and
// produces a detector with *different* clusters and vocabulary, which
// cannot be shadow-compared against the active model. This pass instead
// keeps the informed cluster structure fixed and refreshes the weights:
//
//   * each cluster's LSTM is cloned from the parent and warm-start
//     fine-tuned on the windows recently routed to that cluster,
//   * each cluster's OC-SVM is refit where enough fresh data exists
//     (parent boundary kept verbatim otherwise),
//   * the Markov fallbacks accumulate the new windows' transition counts,
//     so the candidate's training_action_counts() — the drift reference —
//     tracks recent behavior,
//   * a reduced LDA fit over the collected windows measures how far the
//     evolving topic structure has moved from each cluster's training
//     distribution (FineTuneClusterStats::topic_alignment) — the signal
//     that weight-only updates are exhausted and a full re-clustering is
//     due.
//
// Determinism contract: per-cluster work fans out over the global pool
// with seeds derived from the cluster index before the fan-out (same
// scheme as train()), so the candidate archive is bit-identical across
// runs and thread counts.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/detector.hpp"
#include "topics/lda.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace misuse::core {

namespace {

/// Cosine similarity between a float topic row and a double count vector.
double alignment_cosine(std::span<const float> topic, std::span<const double> counts) {
  assert(topic.size() == counts.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < topic.size(); ++i) {
    const double a = static_cast<double>(topic[i]);
    const double b = counts[i];
    dot += a * b;
    na += a * a;
    nb += b * b;
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

MisuseDetector MisuseDetector::fine_tune(
    const MisuseDetector& parent, const std::vector<std::vector<std::vector<int>>>& cluster_windows,
    const FineTuneConfig& config, FineTuneReport* report) {
  Span tune_span("core.fine_tune");
  const std::size_t k = parent.cluster_count();
  assert(cluster_windows.size() == k);
  if (parent.degraded_cluster_count() > 0) {
    throw SerializeError(
        "fine_tune: parent detector has degraded clusters; fine-tuning a Markov "
        "fallback would publish a candidate that hides the corruption");
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (parent.fallbacks_[c] == nullptr) {
      throw SerializeError("fine_tune: parent archive has no Markov fallbacks (v1 archive)");
    }
  }

  MisuseDetector out;
  out.config_ = parent.config_;
  out.vocab_ = parent.vocab_;
  out.clusters_ = parent.clusters_;
  out.reports_ = parent.reports_;
  out.degraded_.assign(k, false);

  std::size_t total_windows = 0;
  for (const auto& windows : cluster_windows) total_windows += windows.size();

  // Deterministic interleaved train/valid split per cluster: every
  // stride-th window validates, the rest train. Spans point into the
  // caller's vectors, which stay alive for the whole pass.
  const std::size_t stride =
      config.valid_frac > 0.0
          ? std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(1.0 / config.valid_frac)))
          : 0;
  const std::size_t min_sessions = std::max<std::size_t>(1, config.min_cluster_sessions);

  std::vector<std::unique_ptr<lm::ActionLanguageModel>> models(k);
  std::vector<std::vector<lm::EpochStats>> histories(k);
  global_pool().parallel_for(0, k, [&](std::size_t c) {
    Span cluster_span("core.fine_tune.cluster");
    auto model = std::make_unique<lm::ActionLanguageModel>(parent.models_[c]->clone());
    if (cluster_windows[c].size() >= min_sessions) {
      std::vector<std::span<const int>> train_spans, valid_spans;
      for (std::size_t i = 0; i < cluster_windows[c].size(); ++i) {
        if (stride > 0 && (i + 1) % stride == 0) {
          valid_spans.emplace_back(cluster_windows[c][i]);
        } else {
          train_spans.emplace_back(cluster_windows[c][i]);
        }
      }
      lm::FineTuneOptions options;
      options.epochs = config.epochs;
      options.learning_rate = config.learning_rate;
      options.seed = config.seed + 1000 + c;  // same derivation scheme as train()
      histories[c] = model->fine_tune(train_spans, valid_spans, options);
    }
    models[c] = std::move(model);
  });
  out.models_ = std::move(models);
  for (std::size_t c = 0; c < k; ++c) {
    for (const auto& es : histories[c]) out.reports_[c].epochs.push_back(es);
  }

  // Fallbacks accumulate: MarkovChainModel::fit adds counts on top of the
  // parent's, so the candidate's recovered training distribution blends
  // the original corpus with the fresh windows.
  out.fallbacks_.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    auto fallback = std::make_unique<lm::MarkovChainModel>(*parent.fallbacks_[c]);
    if (!cluster_windows[c].empty()) {
      std::vector<std::span<const int>> spans;
      spans.reserve(cluster_windows[c].size());
      for (const auto& window : cluster_windows[c]) spans.emplace_back(window);
      fallback->fit(spans);
    }
    out.fallbacks_.push_back(std::move(fallback));
  }

  {
    std::vector<std::vector<std::span<const int>>> svm_sessions(k);
    for (std::size_t c = 0; c < k; ++c) {
      svm_sessions[c].reserve(cluster_windows[c].size());
      for (const auto& window : cluster_windows[c]) svm_sessions[c].emplace_back(window);
    }
    out.assigner_ = std::make_unique<cluster::ClusterAssigner>(
        cluster::ClusterAssigner::refit(*parent.assigner_, svm_sessions, min_sessions));
  }

  if (report != nullptr) {
    report->windows = total_windows;
    report->clusters.assign(k, FineTuneClusterStats{});
    for (std::size_t c = 0; c < k; ++c) {
      report->clusters[c].sessions = cluster_windows[c].size();
      report->clusters[c].tuned = cluster_windows[c].size() >= min_sessions;
      report->clusters[c].epochs = std::move(histories[c]);
    }
    if (total_windows >= min_sessions) {
      std::vector<std::vector<int>> documents;
      documents.reserve(total_windows);
      for (const auto& windows : cluster_windows) {
        for (const auto& window : windows) documents.push_back(window);
      }
      topics::LdaConfig lda;
      lda.topics = config.lda_topics > 0 ? config.lda_topics : k;
      lda.iterations = config.lda_iterations;
      lda.seed = config.seed;
      const topics::LdaModel refreshed = topics::fit_lda(documents, out.vocab_.size(), lda);
      for (std::size_t c = 0; c < k; ++c) {
        const std::vector<double> reference = out.fallbacks_[c]->action_frequencies();
        double best = 0.0;
        for (std::size_t t = 0; t < refreshed.topics; ++t) {
          best = std::max(best, alignment_cosine(refreshed.topic_action.row(t), reference));
        }
        report->clusters[c].topic_alignment = best;
      }
    }
  }
  return out;
}

}  // namespace misuse::core
