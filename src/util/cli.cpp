#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace misuse {

namespace {
bool is_truthy(const std::string& v) {
  return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}
}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    if (body.rfind("no-", 0) == 0) {
      values_[body.substr(3)] = "false";
      continue;
    }
    // "--key value" when the next token is not itself a flag; otherwise a
    // bare boolean "--key".
    if (i + 1 < argc) {
      std::string next = argv[i + 1];
      if (next.rfind("--", 0) != 0) {
        values_[body] = std::move(next);
        ++i;
        continue;
      }
    }
    values_[body] = "";
  }
}

bool CliArgs::flag(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return is_truthy(it->second);
}

std::string CliArgs::str(const std::string& name, const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t CliArgs::integer(const std::string& name, std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::real(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::optional<std::string> CliArgs::unknown_flag(std::span<const std::string_view> known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) return key;
  }
  return std::nullopt;
}

}  // namespace misuse
