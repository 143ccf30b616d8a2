#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/observability.hpp"

namespace misuse {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const auto args = make({"--sessions=500", "--lr=0.01", "--name=run1"});
  EXPECT_EQ(args.integer("sessions", 0), 500);
  EXPECT_DOUBLE_EQ(args.real("lr", 0.0), 0.01);
  EXPECT_EQ(args.str("name"), "run1");
}

TEST(Cli, SpaceSyntax) {
  const auto args = make({"--sessions", "500", "--name", "run2"});
  EXPECT_EQ(args.integer("sessions", 0), 500);
  EXPECT_EQ(args.str("name"), "run2");
}

TEST(Cli, BareBooleanFlag) {
  const auto args = make({"--verbose", "--paper-scale"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_TRUE(args.flag("paper-scale"));
  EXPECT_FALSE(args.flag("missing"));
}

TEST(Cli, NoPrefixDisablesFlag) {
  const auto args = make({"--no-color"});
  EXPECT_FALSE(args.flag("color", true));
}

TEST(Cli, ExplicitFalseValue) {
  const auto args = make({"--color=false"});
  EXPECT_FALSE(args.flag("color", true));
}

TEST(Cli, TruthyValues) {
  EXPECT_TRUE(make({"--a=1"}).flag("a"));
  EXPECT_TRUE(make({"--a=true"}).flag("a"));
  EXPECT_TRUE(make({"--a=yes"}).flag("a"));
  EXPECT_FALSE(make({"--a=0"}).flag("a"));
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = make({});
  EXPECT_EQ(args.integer("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.real("x", 2.5), 2.5);
  EXPECT_EQ(args.str("s", "dflt"), "dflt");
}

TEST(Cli, PositionalArguments) {
  const auto args = make({"input.log", "--mode=fast", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.log");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(Cli, BooleanFlagBeforeAnotherFlag) {
  const auto args = make({"--verbose", "--n", "3"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_EQ(args.integer("n", 0), 3);
}

TEST(Cli, HasDetectsPresence) {
  const auto args = make({"--x=1"});
  EXPECT_TRUE(args.has("x"));
  EXPECT_FALSE(args.has("y"));
}

TEST(Cli, KeysListsAllFlags) {
  const auto args = make({"--b=2", "--a=1"});
  const auto keys = args.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");  // std::map orders keys
  EXPECT_EQ(keys[1], "b");
}

TEST(Cli, ProgramName) {
  const auto args = make({});
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, NegativeNumbers) {
  const auto args = make({"--offset=-5", "--scale=-1.5"});
  EXPECT_EQ(args.integer("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.real("scale", 0.0), -1.5);
}

TEST(Cli, UnknownFlagNamesTheFirstUnlistedFlag) {
  constexpr std::string_view kKnown[] = {"model", "steps", "listen"};
  EXPECT_EQ(make({"--model=m.bin", "--no-steps", "--listen", "7400"}).unknown_flag(kKnown),
            std::nullopt);  // --no-steps counts as steps
  EXPECT_EQ(make({"--model=m.bin", "--no-quant"}).unknown_flag(kKnown), "quant");
  EXPECT_EQ(make({"--zeta=1", "--io=epoll"}).unknown_flag(kKnown), "io");  // key order
  EXPECT_EQ(make({"positional"}).unknown_flag(kKnown), std::nullopt);
}

// --- ExperimentConfig observability flags ------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* current = std::getenv(name);
    if (current != nullptr) saved_ = current;
  }
  ~EnvGuard() {
    if (saved_.empty()) {
      unsetenv(name_);
    } else {
      setenv(name_, saved_.c_str(), 1);
    }
  }

 private:
  const char* name_;
  std::string saved_;
};

TEST(ExperimentConfigCli, MetricsOutFlagIsParsed) {
  EnvGuard guard("MISUSEDET_METRICS");
  unsetenv("MISUSEDET_METRICS");
  const auto config = core::ExperimentConfig::from_cli(make({"--metrics-out=m.json"}));
  EXPECT_EQ(config.metrics_out, "m.json");
  const auto bare = core::ExperimentConfig::from_cli(make({}));
  EXPECT_EQ(bare.metrics_out, "");
}

TEST(ExperimentConfigCli, MetricsOutDefaultsToEnvAndFlagWins) {
  EnvGuard guard("MISUSEDET_METRICS");
  setenv("MISUSEDET_METRICS", "env.json", 1);
  const auto from_env = core::ExperimentConfig::from_cli(make({}));
  EXPECT_EQ(from_env.metrics_out, "env.json");
  const auto from_flag = core::ExperimentConfig::from_cli(make({"--metrics-out=flag.json"}));
  EXPECT_EQ(from_flag.metrics_out, "flag.json");
}

TEST(ExperimentConfigCli, MetricsOutDoesNotChangeFingerprint) {
  EnvGuard guard("MISUSEDET_METRICS");
  unsetenv("MISUSEDET_METRICS");
  const auto plain = core::ExperimentConfig::from_cli(make({"--sessions=500"}));
  const auto with_metrics =
      core::ExperimentConfig::from_cli(make({"--sessions=500", "--metrics-out=m.json"}));
  // Observability never invalidates cached detectors (same rule as
  // --threads): identical pipeline configs hash identically.
  EXPECT_EQ(plain.fingerprint(), with_metrics.fingerprint());
  const auto different = core::ExperimentConfig::from_cli(make({"--sessions=600"}));
  EXPECT_NE(plain.fingerprint(), different.fingerprint());
}

// Minimal recursive-descent JSON checker: accepts exactly the grammar the
// snapshot writer emits (objects, arrays, strings without escapes worth
// validating here, numbers, booleans, null).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(MetricsSnapshot, ValidatorSanity) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, "x"], "b": {"c": true}})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": )").valid());
  EXPECT_FALSE(JsonChecker(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonChecker("{} trailing").valid());
}

TEST(MetricsSnapshot, WritesValidJsonWithCanonicalPanel) {
  core::register_core_metrics();
  std::ostringstream out;
  core::write_metrics_snapshot(out);
  const std::string doc = out.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc.substr(0, 400);
  // The snapshot always carries the full instrument panel, run or not.
  EXPECT_NE(doc.find("\"monitor.observe_seconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"monitor.alarms\""), std::string::npos);
  EXPECT_NE(doc.find("\"lda.ensemble\""), std::string::npos);
  EXPECT_NE(doc.find("\"ocsvm.train\""), std::string::npos);
  EXPECT_NE(doc.find("\"lm.train\""), std::string::npos);
  EXPECT_NE(doc.find("\"pool.tasks_executed\""), std::string::npos);
}

TEST(MetricsSnapshot, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "misusedet_metrics_test.json";
  ASSERT_TRUE(core::write_metrics_snapshot_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(JsonChecker(content.str()).valid());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace misuse
