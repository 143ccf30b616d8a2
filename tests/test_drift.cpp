// Direct unit tests for core/drift's DriftMonitor — the window fill /
// threshold / constructor contracts the continuous-learning guardrails
// (src/learn/policy) lean on, exercised here in isolation rather than
// through the serving path.
#include "core/drift.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sessions/store.hpp"

namespace misuse::core {
namespace {

SessionStore corpus(std::size_t vocab, const std::vector<std::vector<int>>& sessions) {
  ActionVocab v;
  for (std::size_t i = 0; i < vocab; ++i) v.intern(std::string("A").append(std::to_string(i)));
  SessionStore store(std::move(v));
  std::uint64_t id = 0;
  for (const auto& actions : sessions) {
    Session s;
    s.id = ++id;
    s.actions = actions;
    store.add(std::move(s));
  }
  return store;
}

TEST(DriftMonitorUnits, StoreAndCountConstructorsAgree) {
  // The serving layer builds the monitor from explicit counts
  // (training_action_counts); it must read identically to the
  // corpus-built monitor over the same traffic.
  const SessionStore store = corpus(3, {{0, 0, 1}, {1, 2, 2}, {0, 1, 2}});
  DriftConfig config;
  config.window_sessions = 4;
  DriftMonitor from_store(store, config);
  // The corpus above holds three 0s, three 1s, three 2s.
  DriftMonitor from_counts(std::vector<double>{3.0, 3.0, 3.0}, config);
  ASSERT_EQ(from_store.dimensions(), from_counts.dimensions());

  const std::vector<std::vector<int>> traffic = {{0, 1}, {2, 2}, {0, 0, 1}, {1, 2}};
  for (const auto& session : traffic) {
    const double a = from_store.observe(session);
    const double b = from_counts.observe(session);
    EXPECT_DOUBLE_EQ(a, b);
  }
  EXPECT_DOUBLE_EQ(from_store.current_divergence(), from_counts.current_divergence());
}

TEST(DriftMonitorUnits, SilentUntilQuarterWindowThenReports) {
  DriftConfig config;
  config.window_sessions = 8;  // quarter = 2 sessions
  DriftMonitor monitor(std::vector<double>{10.0, 10.0}, config);
  EXPECT_EQ(monitor.window_fill(), 0u);
  // Feed clearly shifted traffic: divergence must stay 0 (not "small")
  // until the window holds window_sessions/4 sessions.
  EXPECT_EQ(monitor.observe(std::vector<int>{1, 1, 1}), 0.0);
  EXPECT_EQ(monitor.window_fill(), 1u);
  const double at_quarter = monitor.observe(std::vector<int>{1, 1, 1});
  EXPECT_GT(at_quarter, 0.0) << "quarter-full window must start reporting";
  EXPECT_EQ(monitor.window_fill(), 2u);
}

TEST(DriftMonitorUnits, ThresholdGatesDriftDetected) {
  DriftConfig config;
  config.window_sessions = 4;
  config.threshold = 0.05;
  DriftMonitor matching(std::vector<double>{5.0, 5.0}, config);
  DriftMonitor shifted(std::vector<double>{5.0, 5.0}, config);
  for (int i = 0; i < 4; ++i) {
    matching.observe(std::vector<int>{0, 1});  // same 50/50 mix as training
    shifted.observe(std::vector<int>{1, 1});   // all mass on one action
  }
  EXPECT_FALSE(matching.drift_detected());
  EXPECT_LE(matching.current_divergence(), config.threshold);
  EXPECT_TRUE(shifted.drift_detected());
  EXPECT_GT(shifted.current_divergence(), config.threshold);
  // The divergence is the JS bound at most.
  EXPECT_LE(shifted.current_divergence(), std::log(2.0) + 1e-12);
}

TEST(DriftMonitorUnits, WindowSlidesAndRecovers) {
  DriftConfig config;
  config.window_sessions = 4;
  config.threshold = 0.05;
  DriftMonitor monitor(std::vector<double>{5.0, 5.0}, config);
  for (int i = 0; i < 4; ++i) monitor.observe(std::vector<int>{1, 1, 1, 1});
  EXPECT_TRUE(monitor.drift_detected());
  EXPECT_EQ(monitor.window_fill(), 4u);
  // Traffic reverts to the training mix; the shifted sessions must age
  // out of the bounded window and the gauge must come back down.
  for (int i = 0; i < 4; ++i) monitor.observe(std::vector<int>{0, 1, 0, 1});
  EXPECT_EQ(monitor.window_fill(), 4u) << "window must stay bounded";
  EXPECT_FALSE(monitor.drift_detected())
      << "divergence stuck high after traffic reverted: " << monitor.current_divergence();
}

TEST(DriftMonitorUnits, OutOfVocabActionsAreDrift) {
  DriftConfig config;
  config.window_sessions = 4;
  config.threshold = 0.05;
  // Reference over 3 actions; production traffic concentrates on an
  // action the training corpus barely saw.
  DriftMonitor monitor(std::vector<double>{10.0, 10.0, 0.0}, config);
  for (int i = 0; i < 4; ++i) monitor.observe(std::vector<int>{2, 2});
  EXPECT_TRUE(monitor.drift_detected());
}

}  // namespace
}  // namespace misuse::core
