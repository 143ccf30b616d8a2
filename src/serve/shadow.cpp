#include "serve/shadow.hpp"

#include <cmath>

#include "serve/metrics.hpp"

namespace misuse::serve {

bool ShadowScorer::selected(std::string_view key) const {
  if (plan_.fraction >= 1.0) return true;
  if (plan_.fraction <= 0.0) return false;
  // Mixed, so sequential session ids spread over [0, 1) instead of
  // landing in one narrow band.
  const std::uint64_t h = mix64(session_shard_hash(key));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
  return unit < plan_.fraction;
}

void ShadowScorer::observe(const Event& event,
                           const core::OnlineMonitor::StepResult& active_step) {
  const std::string key = session_key(event);
  if (!selected(key)) return;
  ServeMetrics& sm = serve_metrics();
  // The candidate resolves the raw action under its own vocabulary — the
  // whole point of shadowing is that the two models may disagree on it.
  const int action = resolve_action_id(plan_.detector->vocab(), event.action);
  if (action < 0) {
    sm.shadow_unknown_actions.inc();
    return;
  }
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    it = sessions_.try_emplace(key, *plan_.detector, plan_.monitor).first;
  }
  const core::OnlineMonitor::StepResult step = it->second.observe(action);
  sm.shadow_steps.inc();
  if (step.alarm != active_step.alarm) sm.shadow_verdict_flips.inc();
  if (step.likelihood_voted && active_step.likelihood_voted) {
    const double candidate_loss = -std::log(std::max(*step.likelihood_voted, 1e-12));
    const double active_loss = -std::log(std::max(*active_step.likelihood_voted, 1e-12));
    sm.shadow_loss_delta.record(std::abs(candidate_loss - active_loss));
  }
}

void ShadowScorer::finish(std::string_view user_id, std::string_view session_id) {
  if (sessions_.erase(session_key(user_id, session_id)) > 0) {
    serve_metrics().shadow_sessions.inc();
  }
}

void ShadowScorer::finish_all() {
  serve_metrics().shadow_sessions.inc(sessions_.size());
  sessions_.clear();
}

}  // namespace misuse::serve
