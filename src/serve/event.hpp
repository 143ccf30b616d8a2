// Wire format of the streaming scoring server (misusedet_serve): one
// flat JSON object per line in, one per line out.
//
// Input event:
//   {"user_id": "u17", "session_id": "s3", "action": "ActionSearchUser",
//    "timestamp": 1722945600.25}
//   * user_id / session_id: opaque identifiers (string or number).
//   * action: either the action *name* (resolved through the detector's
//     vocabulary) or a non-negative integer action id.
//   * timestamp: seconds as a JSON number; optional. Event time drives
//     idle eviction so replayed traces evict deterministically.
//
// Output records (discriminated by "type", always the first member, so
// every record starts with {"type":"<kind>"):
//   * "step": the per-action verdict (OnlineMonitor::StepResult),
//   * "session_report": end-of-session summary with an eviction reason,
//   * "error": a rejected input line with the parse/validation message.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/monitor.hpp"
#include "sessions/vocab.hpp"

namespace misuse::serve {

struct Event {
  std::string user_id;
  std::string session_id;
  std::string action;      // name or decimal id, as received
  double timestamp = 0.0;  // seconds; 0 when the producer sent none
  bool has_timestamp = false;
};

/// Parses one NDJSON event line. Returns false and fills `error` on
/// malformed JSON or missing user_id/session_id/action.
bool parse_event(std::string_view line, Event& event, std::string& error);

/// The session key of the session table and the router's ring: user and
/// session ids joined with an unambiguous separator, so ("a","b:c") and
/// ("a:b","c") cannot collide.
std::string session_key(const Event& event);
std::string session_key(std::string_view user_id, std::string_view session_id);

/// Stable 64-bit FNV-1a over the session key — *not* std::hash, so ring
/// placement and canary selection are identical across platforms and
/// standard libraries.
std::uint64_t session_shard_hash(std::string_view key);

/// splitmix64's finalizer. FNV-1a moves a key's high bits little when
/// only its last bytes change, so keys like "s1", "s2", ... hash close
/// together; mixing spreads them over all 64 bits.
constexpr std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Why a session report was emitted.
enum class ReportReason {
  kIdleEviction,     // TTL sweep found the session idle
  kCapacityEviction, // session table was full, LRU entry evicted
  kShutdown,         // graceful drain at end of stream / signal
  kModelSwap,        // finished at a vocab-changing hot-swap barrier
};
std::string_view report_reason_name(ReportReason reason);

/// Resolves an action string to a vocabulary id: name lookup first, then
/// a decimal-id fallback for producers that pre-encode; -1 when unknown.
int resolve_action_id(const ActionVocab& vocab, std::string_view action);

/// Renders a "step" record (one line, no trailing newline).
std::string render_step_record(const Event& event,
                               const core::OnlineMonitor::StepResult& step);

/// Renders a "session_report" record (one line, no trailing newline).
/// `model_version` stamps the registry version the session was scored
/// under ("v3"); the empty string omits the field entirely, keeping the
/// record byte-identical with pre-registry builds (WAL replay and the
/// offline/online equivalence tests depend on that).
std::string render_report_record(std::string_view user_id, std::string_view session_id,
                                 ReportReason reason, const core::SessionMonitorReport& report,
                                 std::string_view model_version = {});

/// Renders an "error" record for a rejected input line.
std::string render_error_record(std::string_view message, std::string_view line);

/// True when `line` is a rendered "session_report" record, judged by its
/// leading bytes alone (no parse): the router reads every verdict a node
/// sends and parses only reports.
bool is_report_record(std::string_view line);

}  // namespace misuse::serve
