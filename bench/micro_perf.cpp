// Microbenchmarks (google-benchmark) of the hot kernels under every
// experiment: GEMM, LSTM training/inference, LDA Gibbs sweeps, OC-SVM
// routing, featurization, t-SNE iterations, and corpus generation. Not a
// paper figure — this is the performance baseline for regressions.
#include <benchmark/benchmark.h>

#include <tuple>

#include "cluster/assigner.hpp"
#include "core/drift.hpp"
#include "lm/batching.hpp"
#include "lm/language_model.hpp"
#include "lm/markov.hpp"
#include "nn/next_action_model.hpp"
#include "ocsvm/features.hpp"
#include "synth/portal.hpp"
#include "tensor/ops.hpp"
#include "topics/ensemble.hpp"
#include "topics/lda.hpp"
#include "tsne/tsne.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace misuse {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  a.init_gaussian(rng, 1.0f);
  b.init_gaussian(rng, 1.0f);
  for (auto _ : state) {
    gemm(1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n * 2);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_LstmStreamingStep(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::ModelConfig config{.vocab = 300, .hidden = hidden, .dropout = 0.0f};
  nn::NextActionModel model(config, rng);
  auto lstm_state = model.make_state();
  int action = 0;
  for (auto _ : state) {
    const auto probs = model.step(lstm_state, action);
    action = static_cast<int>(argmax(probs));
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LstmStreamingStep)->Arg(48)->Arg(128)->Arg(256);

void BM_GruStreamingStep(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  nn::ModelConfig config{.vocab = 300, .hidden = hidden, .cell = nn::CellKind::kGru,
                         .dropout = 0.0f};
  nn::NextActionModel model(config, rng);
  auto model_state = model.make_state();
  int action = 0;
  for (auto _ : state) {
    const auto probs = model.step(model_state, action);
    action = static_cast<int>(argmax(probs));
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GruStreamingStep)->Arg(48)->Arg(256);

void BM_MarkovScoreSession(benchmark::State& state) {
  Rng rng(13);
  std::vector<std::vector<int>> train(200);
  for (auto& s : train) {
    s.resize(15);
    for (auto& a : s) a = static_cast<int>(rng.uniform_index(300));
  }
  lm::MarkovChainModel markov({.vocab = 300, .smoothing = 0.1});
  markov.fit(std::vector<std::span<const int>>(train.begin(), train.end()));
  std::vector<int> probe(30);
  for (auto& a : probe) a = static_cast<int>(rng.uniform_index(300));
  for (auto _ : state) {
    const auto score = markov.score_session(probe);
    benchmark::DoNotOptimize(score.likelihoods.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 29);
}
BENCHMARK(BM_MarkovScoreSession);

void BM_DriftObserve(benchmark::State& state) {
  Rng rng(14);
  ActionVocab vocab;
  for (int i = 0; i < 300; ++i) vocab.intern(std::string("A").append(std::to_string(i)));
  SessionStore store(std::move(vocab));
  for (int i = 0; i < 100; ++i) {
    Session s;
    s.id = static_cast<std::uint64_t>(i);
    for (int j = 0; j < 15; ++j) {
      s.actions.push_back(static_cast<int>(rng.uniform_index(300)));
    }
    store.add(std::move(s));
  }
  core::DriftMonitor monitor(store, {});
  std::vector<int> session(15);
  for (auto& a : session) a = static_cast<int>(rng.uniform_index(300));
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.observe(session));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DriftObserve);

void BM_LstmTrainBatch(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::ModelConfig config{.vocab = 100, .hidden = hidden, .dropout = 0.4f};
  nn::NextActionModel model(config, rng);
  nn::Adam adam(1e-3f);
  nn::SequenceBatch batch;
  const std::size_t t_steps = 16, batch_size = 8;
  batch.tokens.assign(t_steps, std::vector<int>(batch_size));
  batch.targets.assign(t_steps, std::vector<int>(batch_size));
  for (auto& row : batch.tokens) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_index(100));
  }
  for (auto& row : batch.targets) {
    for (auto& v : row) v = static_cast<int>(rng.uniform_index(100));
  }
  for (auto _ : state) {
    const auto stats = model.train_batch(batch, adam, rng);
    benchmark::DoNotOptimize(stats.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * t_steps * batch_size);
}
BENCHMARK(BM_LstmTrainBatch)->Arg(48)->Arg(128);

void BM_LdaGibbsSweep(benchmark::State& state) {
  const auto topics_count = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::vector<int>> docs(300);
  for (auto& d : docs) {
    d.resize(15);
    for (auto& w : d) w = static_cast<int>(rng.uniform_index(100));
  }
  for (auto _ : state) {
    topics::LdaConfig config;
    config.topics = topics_count;
    config.iterations = 1;
    const auto model = topics::fit_lda(docs, 100, config);
    benchmark::DoNotOptimize(model.topic_action.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 300 * 15);
}
BENCHMARK(BM_LdaGibbsSweep)->Arg(13)->Arg(20);

// OC-SVM routing as the online monitor runs it: OnlineAssignment::push
// over an assigner trained on portal sessions (vocab 300, one OC-SVM per
// ground-truth archetype). Arg 0 replays held-out portal sessions, whose
// prefixes touch a handful of actions; Arg 1 replays 800-action uniform
// random sessions, which touch most of the vocabulary — the worst case
// for a kernel whose cost grows with the actions a prefix touched.
void BM_OnlineAssignmentPush(benchmark::State& state) {
  static const auto fixture = [] {
    synth::PortalConfig config;
    config.sessions = 3000;
    config.seed = 11;
    const SessionStore store = synth::Portal(config).generate();
    std::vector<std::vector<std::span<const int>>> clusters;
    std::vector<std::vector<int>> held_out;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const Session& s = store.at(i);
      if (i % 4 == 3) {
        held_out.push_back(s.actions);
        continue;
      }
      const auto c = static_cast<std::size_t>(s.archetype);
      if (clusters.size() <= c) clusters.resize(c + 1);
      clusters[c].push_back(s.view());
    }
    std::erase_if(clusters, [](const auto& sessions) { return sessions.empty(); });
    cluster::AssignerConfig assigner_config;
    assigner_config.features.vocab = store.vocab().size();
    Rng rng(12);
    std::vector<std::vector<int>> random(20, std::vector<int>(800));
    for (auto& s : random) {
      for (auto& a : s) a = static_cast<int>(rng.uniform_index(store.vocab().size()));
    }
    return std::make_tuple(cluster::ClusterAssigner::train(clusters, assigner_config),
                           std::move(held_out), std::move(random));
  }();
  const auto& [assigner, portal, random] = fixture;
  const auto& sessions = state.range(0) == 0 ? portal : random;
  auto online = assigner.start_online();
  std::size_t session = 0, position = 0;
  for (auto _ : state) {
    if (position == sessions[session].size()) {
      online.reset();
      session = (session + 1) % sessions.size();
      position = 0;
    }
    const auto scores = online.push(sessions[session][position++]);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineAssignmentPush)->Arg(0)->Arg(1);

void BM_SessionFeaturize(benchmark::State& state) {
  Rng rng(6);
  ocsvm::SessionFeaturizer featurizer({.vocab = 300, .length_feature_weight = 0.1});
  std::vector<int> session(50);
  for (auto& a : session) a = static_cast<int>(rng.uniform_index(300));
  for (auto _ : state) {
    const auto f = featurizer.featurize(session);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionFeaturize);

void BM_TsneIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix points(n, 32);
  points.init_gaussian(rng, 1.0f);
  for (auto _ : state) {
    tsne::TsneConfig config;
    config.iterations = 1;
    const auto result = tsne::run_tsne(points, config);
    benchmark::DoNotOptimize(result.embedding.data());
  }
}
BENCHMARK(BM_TsneIteration)->Arg(60)->Arg(120);

void BM_PortalGeneration(benchmark::State& state) {
  synth::PortalConfig config;
  config.sessions = static_cast<std::size_t>(state.range(0));
  config.seed = 8;
  const synth::Portal portal(config);
  for (auto _ : state) {
    const auto store = portal.generate();
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PortalGeneration)->Arg(1000)->Arg(15000);

void BM_WindowedBatching(benchmark::State& state) {
  Rng rng(9);
  std::vector<int> session(90);
  for (auto& a : session) a = static_cast<int>(rng.uniform_index(300));
  for (auto _ : state) {
    const auto examples = lm::make_window_examples(session, 100);
    benchmark::DoNotOptimize(examples.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 89);
}
BENCHMARK(BM_WindowedBatching);

// --- Observability layer: cost of recording one event ------------------
// These bound the per-event overhead the instrumented hot paths pay
// (see DESIGN.md "Observability"): a counter bump and a histogram record
// are a few relaxed atomics; a span open/close additionally resolves its
// tree node under the global mutex, which is why spans stay out of
// per-action code.

void BM_MetricsCounterInc(benchmark::State& state) {
  Counter& counter = metrics().counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  HistogramMetric& histogram = metrics().histogram("bench.histogram");
  double value = 1e-6;
  for (auto _ : state) {
    histogram.record(value);
    value = value < 1.0 ? value * 1.5 : 1e-6;  // touch many buckets
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_MetricsCounterIncDisabled(benchmark::State& state) {
  // The cost left behind on instrumented paths when recording is off.
  Counter& counter = metrics().counter("bench.counter_disabled");
  set_metrics_enabled(false);
  for (auto _ : state) {
    counter.inc();
  }
  set_metrics_enabled(true);
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterIncDisabled);

void BM_TraceSpan(benchmark::State& state) {
  // Nested open/close so the child resolves against a non-root parent,
  // as pipeline spans do.
  Span outer("bench.span_outer");
  for (auto _ : state) {
    Span span("bench.span_inner");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpan);

// --- Parallel execution layer: serial vs thread pool -------------------
// The Arg is the worker count of the global pool; Arg(1) is the exact
// serial path (no threads created). Results are bit-identical across
// args by the determinism contract, so these measure pure scheduling.

void BM_GemmThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  set_global_threads(threads);
  Rng rng(21);
  const std::size_t n = 192;
  Matrix a(n, n), b(n, n), c(n, n);
  a.init_gaussian(rng, 1.0f);
  b.init_gaussian(rng, 1.0f);
  for (auto _ : state) {
    gemm(1.0f, a, b, 0.0f, c, GemmPolicy::kParallel);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n * 2);
  set_global_threads(1);
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Synthetic per-cluster corpus shared by the fan-out benches below.
std::vector<std::vector<std::vector<int>>> make_cluster_corpus(std::size_t clusters,
                                                               std::size_t sessions_per_cluster,
                                                               std::size_t vocab) {
  std::vector<std::vector<std::vector<int>>> corpus(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    Rng rng = Rng::stream(31, c);
    corpus[c].resize(sessions_per_cluster);
    for (auto& s : corpus[c]) {
      s.resize(15);
      for (auto& a : s) a = static_cast<int>(rng.uniform_index(vocab));
    }
  }
  return corpus;
}

void BM_PerClusterLstmTrainThreads(benchmark::State& state) {
  // The dominant training cost of MisuseDetector::train: k = 13
  // independent per-cluster LSTM fits (paper's cluster count), fanned
  // out over the pool exactly as detector.cpp does.
  const auto threads = static_cast<std::size_t>(state.range(0));
  set_global_threads(threads);
  constexpr std::size_t kClusters = 13;
  const auto corpus = make_cluster_corpus(kClusters, 24, 50);
  for (auto _ : state) {
    global_pool().parallel_for(0, kClusters, [&](std::size_t c) {
      lm::LmConfig config;
      config.vocab = 50;
      config.hidden = 16;
      config.epochs = 2;
      config.patience = 0;
      config.seed = 100 + c;
      lm::ActionLanguageModel model(config);
      const std::vector<std::span<const int>> train(corpus[c].begin(), corpus[c].end());
      const auto history = model.fit(train, {});
      benchmark::DoNotOptimize(history.size());
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kClusters);
  set_global_threads(1);
}
BENCHMARK(BM_PerClusterLstmTrainThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_LdaEnsembleThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  set_global_threads(threads);
  Rng rng(23);
  std::vector<std::vector<int>> docs(200);
  for (auto& d : docs) {
    d.resize(15);
    for (auto& w : d) w = static_cast<int>(rng.uniform_index(80));
  }
  topics::EnsembleConfig config;
  config.topic_counts = {10, 13, 16, 20};
  config.iterations = 15;
  for (auto _ : state) {
    const auto ensemble = topics::LdaEnsemble::fit(docs, 80, config);
    benchmark::DoNotOptimize(ensemble.topic_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
  set_global_threads(1);
}
BENCHMARK(BM_LdaEnsembleThreads)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace misuse

BENCHMARK_MAIN();
