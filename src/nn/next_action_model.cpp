#include "nn/next_action_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "nn/infer/kernels.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn {

namespace {
constexpr std::uint32_t kModelMagic = 0x4d4c4d4eu;  // "NMLM"
constexpr std::uint32_t kModelVersion = 4;  // v2: layers; v3: embedding; v4: cell kind

std::unique_ptr<RecurrentLayer> make_cell(CellKind kind, std::size_t input, std::size_t hidden,
                                          Rng& rng) {
  switch (kind) {
    case CellKind::kLstm: return std::make_unique<Lstm>(input, hidden, rng);
    case CellKind::kGru: return std::make_unique<Gru>(input, hidden, rng);
  }
  assert(false);
  return nullptr;
}

std::unique_ptr<RecurrentLayer> load_cell(CellKind kind, BinaryReader& r) {
  switch (kind) {
    case CellKind::kLstm: return std::make_unique<Lstm>(Lstm::load(r));
    case CellKind::kGru: return std::make_unique<Gru>(Gru::load(r));
  }
  throw SerializeError("unknown recurrent cell kind");
}

// Concatenates T (B x H) matrices into one (T*B x H) matrix so a single
// dropout mask covers the whole sequence, and splits gradients back.
Matrix stack_timesteps(const std::vector<Matrix>& steps) {
  assert(!steps.empty());
  const std::size_t b = steps.front().rows();
  const std::size_t h = steps.front().cols();
  Matrix big(steps.size() * b, h);
  for (std::size_t t = 0; t < steps.size(); ++t) {
    std::copy(steps[t].flat().begin(), steps[t].flat().end(),
              big.data() + t * b * h);
  }
  return big;
}

std::vector<Matrix> unstack_timesteps(const Matrix& big, std::size_t t_steps) {
  assert(big.rows() % t_steps == 0);
  const std::size_t b = big.rows() / t_steps;
  const std::size_t h = big.cols();
  std::vector<Matrix> out(t_steps, Matrix(b, h));
  for (std::size_t t = 0; t < t_steps; ++t) {
    std::copy(big.data() + t * b * h, big.data() + (t + 1) * b * h, out[t].data());
  }
  return out;
}

// The streaming step's buffers, one set per thread: kernel passes use
// the gate rows and row pointers, layer-by-layer steps the matrices.
struct StepScratch {
  std::vector<float> gates;  // rows x 4H
  std::vector<const float*> h_rows;
  std::vector<float*> gate_rows;
  std::vector<float*> logit_rows;
  Matrix layer_gates;  // 1 x 4H (or the GRU's fused width)
  Matrix logits;       // 1 x vocab
  Matrix embed;        // 1 x embedding_dim
  std::vector<int> token;
};

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

// The kernels read the model's matrices in place, at call time.
infer::LstmWeights kernel_weights(const Lstm& cell, const Dense& head) {
  infer::LstmWeights w;
  w.vocab = cell.vocab();
  w.hidden = cell.hidden();
  w.head_out = head.out_dim();
  w.wx = cell.wx().data();
  w.wh = cell.wh().data();
  w.bias = cell.bias().data();
  w.head_w = head.weights().data();
  w.head_b = head.bias().data();
  return w;
}

// One kernel pass over at most rows_per_pass() rows: the gate product for
// every row, each row's cell update in place, then the head product and
// softmax straight into the callers' distributions.
void kernel_pass(const infer::Kernels& k, const infer::LstmWeights& w,
                 std::span<ModelState* const> states, std::span<const int> actions,
                 std::span<std::vector<float>* const> probs, StepScratch& s) {
  const std::size_t n = states.size();
  const std::size_t g4 = 4 * w.hidden;
  s.gates.resize(n * g4);
  s.h_rows.resize(n);
  s.gate_rows.resize(n);
  s.logit_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.h_rows[i] = states[i]->layers.front().h.data();
    s.gate_rows[i] = s.gates.data() + i * g4;
  }
  k.gates_batch(w, s.h_rows.data(), actions.data(), s.gate_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    LstmState& cell = states[i]->layers.front();
    k.activate_update(s.gate_rows[i], w.hidden, cell.c.data(), cell.h.data());
    probs[i]->resize(w.head_out);
    s.logit_rows[i] = probs[i]->data();
  }
  // h advanced in place above; h_rows still point at the live storage.
  k.head_batch(w, s.h_rows.data(), s.logit_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) k.softmax(s.logit_rows[i], w.head_out, s.logit_rows[i]);
}
}  // namespace

std::size_t SequenceBatch::target_count() const {
  std::size_t n = 0;
  for (const auto& row : targets) {
    for (int t : row) {
      if (t != kIgnoreTarget) ++n;
    }
  }
  return n;
}

NextActionModel::NextActionModel(const ModelConfig& config, Rng& rng)
    : config_(config), dropout_(config.dropout), head_(config.hidden, config.vocab, rng) {
  assert(config.vocab > 0);
  assert(config.layers >= 1);
  if (config.embedding_dim > 0) {
    embedding_ = std::make_unique<Embedding>(config.vocab, config.embedding_dim, rng);
    lstms_.push_back(make_cell(config.cell, config.embedding_dim, config.hidden, rng));
  } else {
    lstms_.push_back(make_cell(config.cell, config.vocab, config.hidden, rng));
  }
  for (std::size_t l = 1; l < config.layers; ++l) {
    lstms_.push_back(make_cell(config.cell, config.hidden, config.hidden, rng));
    inter_dropout_.emplace_back(config.dropout);
  }
}

NextActionModel::NextActionModel(const ModelConfig& config, std::unique_ptr<Embedding> embedding,
                                 std::vector<std::unique_ptr<RecurrentLayer>> lstms, Dense head)
    : config_(config),
      embedding_(std::move(embedding)),
      lstms_(std::move(lstms)),
      dropout_(config.dropout),
      head_(std::move(head)) {
  for (std::size_t l = 1; l < config_.layers; ++l) inter_dropout_.emplace_back(config_.dropout);
}

ParameterList NextActionModel::params() {
  ParameterList all;
  if (embedding_) {
    for (auto* p : embedding_->params()) all.push_back(p);
  }
  for (auto& lstm : lstms_) {
    for (auto* p : lstm->params()) all.push_back(p);
  }
  for (auto* p : head_.params()) all.push_back(p);
  return all;
}

std::size_t NextActionModel::parameter_count() { return misuse::nn::parameter_count(params()); }

void NextActionModel::forward_gather(const SequenceBatch& batch, Rng* rng, Matrix& logits,
                                     std::vector<int>& flat_targets) {
  assert(batch.tokens.size() == batch.targets.size());
  const std::size_t t_steps = batch.time_steps();

  if (embedding_) {
    std::vector<Matrix> embedded(t_steps);
    for (std::size_t t = 0; t < t_steps; ++t) {
      embedding_->lookup(batch.tokens[t], embedded[t]);
    }
    lstms_[0]->forward_dense(embedded);
  } else {
    lstms_[0]->forward(batch.tokens);
  }
  for (std::size_t l = 1; l < lstms_.size(); ++l) {
    std::vector<Matrix> inputs(t_steps);
    for (std::size_t t = 0; t < t_steps; ++t) inputs[t] = lstms_[l - 1]->hidden_at(t);
    if (rng != nullptr) {
      Matrix big = stack_timesteps(inputs);
      inter_dropout_[l - 1].forward_train(big, *rng);
      inputs = unstack_timesteps(big, t_steps);
    }
    lstms_[l]->forward_dense(inputs);
  }
  RecurrentLayer& top = *lstms_.back();

  gather_positions_.clear();
  flat_targets.clear();
  for (std::size_t t = 0; t < batch.targets.size(); ++t) {
    const auto& row = batch.targets[t];
    assert(row.size() == batch.batch_size());
    for (std::size_t b = 0; b < row.size(); ++b) {
      if (row[b] == kIgnoreTarget) continue;
      gather_positions_.emplace_back(t, b);
      flat_targets.push_back(row[b]);
    }
  }

  gathered_hidden_.resize(gather_positions_.size(), config_.hidden);
  for (std::size_t i = 0; i < gather_positions_.size(); ++i) {
    const auto [t, b] = gather_positions_[i];
    const Matrix& h = top.hidden_at(t);
    const float* src = h.data() + b * config_.hidden;
    float* dst = gathered_hidden_.data() + i * config_.hidden;
    std::copy(src, src + config_.hidden, dst);
  }

  if (rng != nullptr) dropout_.forward_train(gathered_hidden_, *rng);
  head_.forward(gathered_hidden_, logits);
}

TrainStepStats NextActionModel::train_batch(const SequenceBatch& batch, Optimizer& optimizer,
                                            Rng& rng, float clip_norm) {
  const ParameterList parameters = params();
  zero_grads(parameters);

  Matrix logits;
  std::vector<int> flat_targets;
  forward_gather(batch, &rng, logits, flat_targets);

  TrainStepStats stats;
  stats.targets = flat_targets.size();
  if (flat_targets.empty()) return stats;

  Matrix d_logits;
  const XentResult xent = softmax_xent_backward(logits, flat_targets, d_logits);
  stats.loss = xent.mean_loss();
  stats.accuracy = xent.accuracy();

  Matrix d_gathered;
  head_.backward(d_logits, d_gathered);
  dropout_.backward(d_gathered);

  // Scatter gathered hidden-state grads back into per-timestep matrices
  // for the top layer.
  const std::size_t t_steps = lstms_.back()->steps();
  const std::size_t batch_rows = lstms_.back()->batch();
  std::vector<Matrix> d_hidden(t_steps, Matrix(batch_rows, config_.hidden));
  for (std::size_t i = 0; i < gather_positions_.size(); ++i) {
    const auto [t, b] = gather_positions_[i];
    float* dst = d_hidden[t].data() + b * config_.hidden;
    const float* src = d_gathered.data() + i * config_.hidden;
    for (std::size_t j = 0; j < config_.hidden; ++j) dst[j] += src[j];
  }

  // BPTT down the stack; inter-layer dropout masks gate the gradients
  // exactly as they gated the activations.
  for (std::size_t l = lstms_.size(); l-- > 1;) {
    std::vector<Matrix> d_inputs;
    lstms_[l]->backward(d_hidden, &d_inputs);
    Matrix big = stack_timesteps(d_inputs);
    inter_dropout_[l - 1].backward(big);
    d_hidden = unstack_timesteps(big, t_steps);
  }
  if (embedding_) {
    std::vector<Matrix> d_embedded;
    lstms_[0]->backward(d_hidden, &d_embedded);
    for (std::size_t t = 0; t < d_embedded.size(); ++t) {
      embedding_->backward(batch.tokens[t], d_embedded[t]);
    }
  } else {
    lstms_[0]->backward(d_hidden, nullptr);
  }

  const float max_norm =
      clip_norm > 0.0f ? clip_norm : std::numeric_limits<float>::infinity();
  stats.grad_norm = clip_grad_norm(parameters, max_norm);
  optimizer.step(parameters);
  return stats;
}

XentResult NextActionModel::evaluate(const SequenceBatch& batch) {
  Matrix logits;
  std::vector<int> flat_targets;
  forward_gather(batch, nullptr, logits, flat_targets);
  if (flat_targets.empty()) return {};
  return softmax_xent_eval(logits, flat_targets);
}

std::vector<double> NextActionModel::target_likelihoods(const SequenceBatch& batch) {
  Matrix logits;
  std::vector<int> flat_targets;
  forward_gather(batch, nullptr, logits, flat_targets);
  return target_probabilities(logits, flat_targets);
}

ModelState NextActionModel::make_state() const {
  ModelState state;
  state.layers.reserve(lstms_.size());
  for (std::size_t l = 0; l < lstms_.size(); ++l) {
    state.layers.emplace_back(1, config_.hidden);
  }
  return state;
}

std::vector<float> NextActionModel::step(ModelState& state, int action) const {
  std::vector<float> probs;
  step_into(state, action, probs);
  return probs;
}

void NextActionModel::step_into(ModelState& state, int action, std::vector<float>& probs) const {
  ModelState* const row = &state;
  std::vector<float>* const out = &probs;
  step_batch({&row, 1}, {&action, 1}, {&out, 1});
}

const Lstm* NextActionModel::kernel_cell() const {
  if (embedding_ != nullptr || lstms_.size() != 1) return nullptr;
  return dynamic_cast<const Lstm*>(lstms_.front().get());
}

std::size_t NextActionModel::rows_per_pass() const {
  if (kernel_cell() == nullptr) return 1;
  return std::max<std::size_t>(1, 32768 / (16 * config_.hidden));
}

void NextActionModel::step_batch(std::span<ModelState* const> states, std::span<const int> actions,
                                 std::span<std::vector<float>* const> probs) const {
  assert(states.size() == actions.size() && states.size() == probs.size());
  const Lstm* cell = kernel_cell();
  if (cell == nullptr) {
    for (std::size_t i = 0; i < states.size(); ++i) step_layers(*states[i], actions[i], *probs[i]);
    return;
  }
  // Past rows_per_pass() rows the gate scratch outgrows L1d and every
  // weight row read pays for it; rows are independent, so the split
  // keeps every bit.
  const infer::LstmWeights w = kernel_weights(*cell, head_);
  const infer::Kernels& k = *infer::selected_kernels();
  StepScratch& scratch = step_scratch();
  const std::size_t pass = rows_per_pass();
  for (std::size_t b = 0; b < states.size(); b += pass) {
    const std::size_t m = std::min(pass, states.size() - b);
    kernel_pass(k, w, states.subspan(b, m), actions.subspan(b, m), probs.subspan(b, m), scratch);
  }
}

void NextActionModel::step_layers(ModelState& state, int action, std::vector<float>& probs) const {
  assert(action == kPadToken ||
         (action >= 0 && static_cast<std::size_t>(action) < config_.vocab));
  assert(state.layers.size() == lstms_.size());
  StepScratch& s = step_scratch();
  if (embedding_) {
    embedding_->lookup_row(action, s.embed);
    lstms_[0]->step_dense_scratch(s.embed, state.layers[0], s.layer_gates);
  } else {
    s.token.assign(1, action);
    lstms_[0]->step_scratch(s.token, state.layers[0], s.layer_gates);
  }
  for (std::size_t l = 1; l < lstms_.size(); ++l) {
    lstms_[l]->step_dense_scratch(state.layers[l - 1].h, state.layers[l], s.layer_gates);
  }
  head_probs(state, probs);
}

void NextActionModel::head_probs(const ModelState& state, std::vector<float>& probs) const {
  probs.resize(config_.vocab);
  if (const Lstm* cell = kernel_cell()) {
    const infer::LstmWeights w = kernel_weights(*cell, head_);
    const infer::Kernels& k = *infer::selected_kernels();
    const float* const h = state.layers.front().h.data();
    float* const logits = probs.data();
    k.head_batch(w, &h, &logits, 1);
    k.softmax(logits, w.head_out, logits);
    return;
  }
  StepScratch& s = step_scratch();
  head_.infer(state.layers.back().h, s.logits);
  (void)softmax_row(s.logits.row(0), probs);
}

double NextActionModel::SessionScore::avg_likelihood() const {
  if (likelihoods.empty()) return 0.0;
  double sum = 0.0;
  for (double v : likelihoods) sum += v;
  return sum / static_cast<double>(likelihoods.size());
}

double NextActionModel::SessionScore::avg_loss() const {
  if (losses.empty()) return 0.0;
  double sum = 0.0;
  for (double v : losses) sum += v;
  return sum / static_cast<double>(losses.size());
}

double NextActionModel::SessionScore::perplexity() const { return std::exp(avg_loss()); }

NextActionModel::SessionScore NextActionModel::score_session(std::span<const int> actions) const {
  SessionScore score;
  if (actions.size() < 2) return score;  // mirrors the < 2 actions filter (§IV-A)
  ModelState state = make_state();
  std::size_t correct = 0;
  for (std::size_t i = 0; i + 1 < actions.size(); ++i) {
    const std::vector<float> probs = step(state, actions[i]);
    const int next = actions[i + 1];
    assert(next >= 0 && static_cast<std::size_t>(next) < config_.vocab);
    const double p = std::max(static_cast<double>(probs[static_cast<std::size_t>(next)]), 1e-12);
    score.likelihoods.push_back(p);
    score.losses.push_back(-std::log(p));
    if (argmax(probs) == static_cast<std::size_t>(next)) ++correct;
  }
  score.accuracy = score.likelihoods.empty()
                       ? 0.0
                       : static_cast<double>(correct) / static_cast<double>(score.likelihoods.size());
  return score;
}

void NextActionModel::save(BinaryWriter& w) const {
  w.write_magic(kModelMagic, kModelVersion);
  w.write<std::uint64_t>(config_.vocab);
  w.write<std::uint64_t>(config_.hidden);
  w.write<std::uint64_t>(config_.layers);
  w.write<std::uint64_t>(config_.embedding_dim);
  w.write<std::int32_t>(static_cast<std::int32_t>(config_.cell));
  w.write<float>(config_.dropout);
  if (embedding_) embedding_->save(w);
  for (const auto& lstm : lstms_) lstm->save(w);
  head_.save(w);
}

NextActionModel NextActionModel::clone() const {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  BinaryWriter w(buffer);
  save(w);
  BinaryReader r(buffer);
  return load(r);
}

NextActionModel NextActionModel::load(BinaryReader& r) {
  const std::uint32_t version = r.read_magic(kModelMagic);
  ModelConfig config;
  config.vocab = static_cast<std::size_t>(r.read<std::uint64_t>());
  config.hidden = static_cast<std::size_t>(r.read<std::uint64_t>());
  config.layers = version >= 2 ? static_cast<std::size_t>(r.read<std::uint64_t>()) : 1;
  config.embedding_dim = version >= 3 ? static_cast<std::size_t>(r.read<std::uint64_t>()) : 0;
  config.cell = version >= 4 ? static_cast<CellKind>(r.read<std::int32_t>()) : CellKind::kLstm;
  config.dropout = r.read<float>();
  std::unique_ptr<Embedding> embedding;
  if (config.embedding_dim > 0) {
    embedding = std::make_unique<Embedding>(Embedding::load(r));
    if (embedding->vocab() != config.vocab || embedding->dim() != config.embedding_dim) {
      throw SerializeError("embedding archive shape mismatch");
    }
  }
  std::vector<std::unique_ptr<RecurrentLayer>> lstms;
  for (std::size_t l = 0; l < config.layers; ++l) lstms.push_back(load_cell(config.cell, r));
  Dense head = Dense::load(r);
  const std::size_t expected_input =
      config.embedding_dim > 0 ? config.embedding_dim : config.vocab;
  if (lstms.front()->input_dim() != expected_input || lstms.front()->hidden() != config.hidden ||
      head.in_dim() != config.hidden || head.out_dim() != config.vocab) {
    throw SerializeError("model archive shape mismatch");
  }
  for (std::size_t l = 1; l < config.layers; ++l) {
    if (lstms[l]->input_dim() != config.hidden || lstms[l]->hidden() != config.hidden) {
      throw SerializeError("stacked layer shape mismatch");
    }
  }
  return NextActionModel(config, std::move(embedding), std::move(lstms), std::move(head));
}

}  // namespace misuse::nn
