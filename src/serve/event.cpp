#include "serve/event.hpp"

#include <cctype>
#include <sstream>

#include "util/json.hpp"
#include "util/line_io.hpp"

namespace misuse::serve {

bool parse_event(std::string_view line, Event& event, std::string& error) {
  std::vector<JsonField> fields;
  if (!parse_flat_json(line, fields, error)) return false;
  const auto user = get_string(fields, "user_id");
  const auto session = get_string(fields, "session_id");
  const auto action = get_string(fields, "action");
  if (!user || user->empty()) {
    error = "missing user_id";
    return false;
  }
  if (!session || session->empty()) {
    error = "missing session_id";
    return false;
  }
  if (!action || action->empty()) {
    error = "missing action";
    return false;
  }
  event.user_id = *user;
  event.session_id = *session;
  event.action = *action;
  const auto ts = get_number(fields, "timestamp");
  event.has_timestamp = ts.has_value();
  event.timestamp = ts.value_or(0.0);
  return true;
}

std::string session_key(const Event& event) {
  return session_key(event.user_id, event.session_id);
}

std::string session_key(std::string_view user_id, std::string_view session_id) {
  std::string key;
  key.reserve(user_id.size() + session_id.size() + 1);
  key += user_id;
  key += '\x1f';  // ASCII unit separator: cannot appear via JSON text unescaped ids in practice
  key += session_id;
  return key;
}

std::uint64_t session_shard_hash(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string_view report_reason_name(ReportReason reason) {
  switch (reason) {
    case ReportReason::kIdleEviction: return "idle_eviction";
    case ReportReason::kCapacityEviction: return "capacity_eviction";
    case ReportReason::kShutdown: return "shutdown";
    case ReportReason::kModelSwap: return "model_swap";
  }
  return "unknown";
}

int resolve_action_id(const ActionVocab& vocab, std::string_view action) {
  if (const auto id = vocab.find(action)) return *id;
  if (action.empty()) return -1;
  int value = 0;
  for (const char c : action) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return -1;
    if (value > static_cast<int>(vocab.size())) return -1;  // overflow guard
    value = value * 10 + (c - '0');
  }
  return value < static_cast<int>(vocab.size()) ? value : -1;
}

namespace {

void write_ids(JsonWriter& json, std::string_view user_id, std::string_view session_id) {
  json.member("user_id", user_id);
  json.member("session_id", session_id);
}

}  // namespace

std::string render_step_record(const Event& event,
                               const core::OnlineMonitor::StepResult& step) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("type", "step");
    write_ids(json, event.user_id, event.session_id);
    json.member("step", step.step);
    json.member("cluster", step.cluster_voted);
    json.member("cluster_argmax", step.cluster_argmax);
    json.key("likelihood");
    if (step.likelihood_voted) {
      json.value(*step.likelihood_voted);
    } else {
      json.null();
    }
    json.member("alarm", step.alarm);
    json.member("trend_alarm", step.trend_alarm);
    // Only rendered when true so healthy deployments keep byte-identical
    // output with pre-degraded-mode builds.
    if (step.degraded) json.member("degraded", true);
    if (!step.expected.empty()) {
      json.key("expected");
      json.begin_array();
      for (const auto& e : step.expected) {
        json.begin_object();
        json.member("action", e.action);
        json.member("p", e.probability);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
  }
  return out.str();
}

std::string render_report_record(std::string_view user_id, std::string_view session_id,
                                 ReportReason reason, const core::SessionMonitorReport& report,
                                 std::string_view model_version) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("type", "session_report");
    write_ids(json, user_id, session_id);
    json.member("reason", report_reason_name(reason));
    json.member("steps", report.steps);
    json.member("alarms", report.alarms);
    json.member("trend_alarms", report.trend_alarms);
    json.member("disagree_steps", report.disagree_steps);
    json.key("first_alarm_step");
    if (report.first_alarm_step) {
      json.value(*report.first_alarm_step);
    } else {
      json.null();
    }
    json.member("voted_cluster", report.voted_cluster);
    json.member("avg_likelihood", report.avg_likelihood_voted);
    if (report.degraded) json.member("degraded", true);
    // Omitted (not null) when unset — see the header note on byte-compat.
    if (!model_version.empty()) json.member("model_version", model_version);
    json.end_object();
  }
  return out.str();
}

std::string render_error_record(std::string_view message, std::string_view line) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("type", "error");
    json.member("error", message);
    json.member("line", line);
    json.end_object();
  }
  return out.str();
}

bool is_report_record(std::string_view line) {
  return line.starts_with(R"({"type":"session_report")");
}

}  // namespace misuse::serve
