// Tiny command-line flag parser used by every bench/example binary.
// Supported syntax: --key=value, --key value, and boolean --flag /
// --no-flag. Unknown flags are collected so binaries can reject typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace misuse {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True when --name or --name=<truthy> was passed.
  bool flag(const std::string& name, bool default_value = false) const;

  std::string str(const std::string& name, const std::string& default_value = "") const;
  std::int64_t integer(const std::string& name, std::int64_t default_value) const;
  double real(const std::string& name, double default_value) const;

  bool has(const std::string& name) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Flags present on the command line, for --help/typo reporting.
  std::vector<std::string> keys() const;

  /// The first flag given that is not in `known` ("--no-X" counts as
  /// "X"), or nullopt: the serving binaries refuse to start on a typo or
  /// on a flag this build no longer has.
  std::optional<std::string> unknown_flag(std::span<const std::string_view> known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace misuse
