#include "registry/metadata.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "util/json.hpp"
#include "util/line_io.hpp"

namespace misuse::registry {

namespace {

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), digits[v & 0xf]);
    v >>= 4;
  } while (v != 0);
  return out;
}

std::optional<std::uint64_t> parse_hex(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

std::optional<std::uint64_t> get_u64(const std::vector<JsonField>& fields, std::string_view key) {
  const auto v = get_number(fields, key);
  if (!v || *v < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

}  // namespace

std::string_view version_state_name(VersionState state) {
  switch (state) {
    case VersionState::kStaging: return "staging";
    case VersionState::kCanary: return "canary";
    case VersionState::kActive: return "active";
    case VersionState::kRetired: return "retired";
  }
  return "unknown";
}

std::optional<VersionState> parse_version_state(std::string_view name) {
  if (name == "staging") return VersionState::kStaging;
  if (name == "canary") return VersionState::kCanary;
  if (name == "active") return VersionState::kActive;
  if (name == "retired") return VersionState::kRetired;
  return std::nullopt;
}

std::string version_name(std::uint64_t version) {
  std::string name = "v";
  name += std::to_string(version);
  return name;
}

std::optional<std::uint64_t> parse_version_name(std::string_view name) {
  if (name.size() < 2 || name.size() > 21 || name[0] != 'v') return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : name.substr(1)) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::string render_metadata(const VersionMetadata& meta) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("version", meta.version);
    json.member("state", version_state_name(meta.state));
    json.member("parent", meta.parent);
    json.member("vocab_hash", to_hex(meta.vocab_hash));
    json.member("archive_crc", to_hex(meta.archive_crc));
    json.member("archive_bytes", meta.archive_bytes);
    json.member("clusters", meta.clusters);
    json.member("vocab_size", meta.vocab_size);
    json.member("pinned", meta.pinned);
    json.member("created_unix", static_cast<long long>(meta.created_unix));
    json.member("note", meta.note);
    json.end_object();
  }
  out << '\n';
  return out.str();
}

std::optional<VersionMetadata> parse_metadata(std::string_view json) {
  // Trim the trailing newline render_metadata appends.
  while (!json.empty() && (json.back() == '\n' || json.back() == '\r')) json.remove_suffix(1);
  std::vector<JsonField> fields;
  std::string error;
  if (!parse_flat_json(json, fields, error)) return std::nullopt;

  VersionMetadata meta;
  const auto version = get_u64(fields, "version");
  const auto state_name = get_string(fields, "state");
  const auto vocab_hash = get_string(fields, "vocab_hash");
  const auto archive_crc = get_string(fields, "archive_crc");
  if (!version || !state_name || !vocab_hash || !archive_crc) return std::nullopt;
  const auto state = parse_version_state(*state_name);
  const auto hash_value = parse_hex(*vocab_hash);
  const auto crc_value = parse_hex(*archive_crc);
  if (!state || !hash_value || !crc_value || *crc_value > 0xffffffffULL) return std::nullopt;

  meta.version = *version;
  meta.state = *state;
  meta.vocab_hash = *hash_value;
  meta.archive_crc = static_cast<std::uint32_t>(*crc_value);
  meta.parent = get_u64(fields, "parent").value_or(0);
  meta.archive_bytes = get_u64(fields, "archive_bytes").value_or(0);
  meta.clusters = get_u64(fields, "clusters").value_or(0);
  meta.vocab_size = get_u64(fields, "vocab_size").value_or(0);
  const JsonField* pinned = find_field(fields, "pinned");
  meta.pinned = pinned != nullptr && !pinned->is_string && pinned->value == "true";
  meta.created_unix =
      static_cast<std::int64_t>(get_number(fields, "created_unix").value_or(0.0));
  meta.note = get_string(fields, "note").value_or("");
  return meta;
}

}  // namespace misuse::registry
