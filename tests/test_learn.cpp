// Continuous-learning subsystem (src/learn): collector labeling and
// buffering, fine-tune determinism, the promotion guardrails (each pinned
// by a test that fails if the guard is removed), the full loop's
// end-to-end determinism — two runs over the same registry seed and event
// stream produce byte-identical candidate archives and audit logs — and
// the post-promotion drift watch's auto-rollback.
#include "learn/loop.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "learn/audit.hpp"
#include "learn/collector.hpp"
#include "learn/policy.hpp"
#include "registry/registry.hpp"
#include "synth/portal.hpp"
#include "util/failpoint.hpp"
#include "util/fsio.hpp"
#include "util/serialize.hpp"

namespace misuse::learn {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared fixture: one small trained detector + its training traffic.

class LearnFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 160;
    pc.users = 30;
    pc.action_count = 60;
    pc.seed = 42;
    store_ = new SessionStore(synth::Portal(pc).generate());
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {8};
    dc.ensemble.iterations = 6;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 1;
    dc.lm.patience = 0;
    detector_ = new core::MisuseDetector(core::MisuseDetector::train(*store_, dc));
    fs::create_directories(scratch());
    archive_path_ = new std::string(scratch() + "seed.bin");
    std::ofstream out(*archive_path_, std::ios::binary | std::ios::trunc);
    BinaryWriter writer(out);
    detector_->save(writer);
  }
  static void TearDownTestSuite() {
    delete store_;
    delete detector_;
    delete archive_path_;
    store_ = nullptr;
    detector_ = nullptr;
    archive_path_ = nullptr;
    fs::remove_all(scratch());
  }

  /// This process's own directory for every file the suite writes:
  /// gtest_discover_tests runs each TEST in a separate process, and under
  /// `ctest -j` those run at once, so a fixed path would let one process
  /// truncate or delete an archive another is loading.
  static std::string scratch() {
    return ::testing::TempDir() + "misusedet_learn_" + std::to_string(::getpid()) + "/";
  }

  static const SessionStore& store() { return *store_; }
  static const core::MisuseDetector& detector() { return *detector_; }
  static const std::string& archive() { return *archive_path_; }

  static std::string fresh_root(const std::string& name) {
    const std::string root = scratch() + name;
    fs::remove_all(root);
    return root;
  }

  /// A registry with the seed detector active as v1.
  static std::string seeded_registry(const std::string& name) {
    const std::string root = fresh_root(name);
    registry::ModelRegistry registry(root);
    const std::uint64_t v1 = registry.publish(archive(), "seed");
    registry.promote(v1);
    registry.promote(v1);
    return root;
  }

  /// The training corpus replayed as events: one session window per store
  /// session, each under its own session key, strictly increasing time.
  static std::vector<serve::Event> training_events() {
    std::vector<serve::Event> events;
    const ActionVocab& vocab = store().vocab();
    for (std::size_t s = 0; s < store().size(); ++s) {
      const Session& session = store().at(s);
      for (std::size_t i = 0; i < session.actions.size(); ++i) {
        serve::Event event;
        event.user_id = std::string("u").append(std::to_string(s));
        event.session_id = std::string("s").append(std::to_string(s));
        event.action = vocab.name(session.actions[i]);
        event.timestamp = 1000.0 * static_cast<double>(s) + static_cast<double>(i);
        event.has_timestamp = true;
        events.push_back(std::move(event));
      }
    }
    return events;
  }

  /// Heavily drifted traffic: every window hammers one single action.
  static std::vector<serve::Event> drifted_events(std::size_t windows, double start_time) {
    std::vector<serve::Event> events;
    const std::string action = store().vocab().name(0);
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t i = 0; i < 12; ++i) {
        serve::Event event;
        event.user_id = std::string("drift").append(std::to_string(w));
        event.session_id = std::string("d").append(std::to_string(w));
        event.action = action;
        event.timestamp = start_time + 1000.0 * static_cast<double>(w) + static_cast<double>(i);
        event.has_timestamp = true;
        events.push_back(std::move(event));
      }
    }
    return events;
  }

  /// Loop config sized for the fixture: tiny budgets, lenient guardrails
  /// (individual tests tighten the guard under test).
  static LearnLoopConfig lenient_config() {
    LearnLoopConfig config;
    config.collector.max_alarm_steps = 1000;  // admit everything
    config.collector.eval_every = 5;
    config.trainer.epochs = 1;
    config.trainer.lda_iterations = 4;
    config.min_train_windows = 8;
    config.watch_min_windows = 2;
    config.policy.eval_budget_steps = 10;
    config.policy.max_flip_rate = 1.0;
    config.policy.max_loss_delta = 1e9;
    config.policy.drift_margin = 1e9;
    config.policy.rollback_drift_margin = 1e9;
    return config;
  }

 private:
  static SessionStore* store_;
  static core::MisuseDetector* detector_;
  static std::string* archive_path_;
};

SessionStore* LearnFixture::store_ = nullptr;
core::MisuseDetector* LearnFixture::detector_ = nullptr;
std::string* LearnFixture::archive_path_ = nullptr;

std::shared_ptr<const core::MisuseDetector> shared_detector(const core::MisuseDetector& d) {
  // Non-owning alias: the fixture keeps the detector alive for the suite.
  return {std::shared_ptr<const core::MisuseDetector>{}, &d};
}

std::string serialize(const core::MisuseDetector& detector) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  detector.save(writer);
  return out.str();
}

// ---------------------------------------------------------------------------
// Collector.

TEST_F(LearnFixture, CollectorLabelsAndBuffersWindows) {
  CollectorConfig config;
  config.max_alarm_steps = 1000;
  config.eval_every = 0;  // everything to training
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  for (const auto& event : training_events()) collector.observe(event);
  collector.flush();
  EXPECT_EQ(collector.open_windows(), 0u);
  EXPECT_GT(collector.buffered_windows(), 100u);
  const auto buffers = collector.training_windows();
  ASSERT_EQ(buffers.size(), detector().cluster_count());
  std::size_t populated = 0;
  for (const auto& buffer : buffers) populated += buffer.empty() ? 0 : 1;
  EXPECT_GE(populated, 2u) << "labeling routed every window to one cluster";
}

TEST_F(LearnFixture, CollectorDiscardsShortAndUnknown) {
  CollectorConfig config;
  config.min_actions = 2;
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  serve::Event event;
  event.user_id = "u";
  event.session_id = "s";
  event.action = store().vocab().name(0);
  event.timestamp = 1.0;
  event.has_timestamp = true;
  collector.observe(event);
  serve::Event unknown = event;
  unknown.action = "NotAnActionAnyoneTrainedOn";
  unknown.timestamp = 2.0;
  collector.observe(unknown);
  collector.flush();
  EXPECT_EQ(collector.buffered_windows(), 0u);  // one known action < min_actions
  EXPECT_EQ(collector.discarded_windows(), 1u);
  EXPECT_EQ(collector.unknown_actions(), 1u);
}

TEST_F(LearnFixture, CollectorExcludesAlarmedWindows) {
  CollectorConfig config;
  config.max_alarm_steps = 0;
  core::MonitorConfig monitor;
  monitor.alarm_likelihood = 1.0;  // every scored step alarms
  SessionWindowCollector collector(shared_detector(detector()), monitor, config);
  for (const auto& event : training_events()) collector.observe(event);
  collector.flush();
  EXPECT_EQ(collector.buffered_windows(), 0u) << "alarmed windows entered the training buffer";
  // Long sessions split at max_actions, so windows >= sessions.
  EXPECT_GE(collector.discarded_windows(), store().size());
}

TEST_F(LearnFixture, CollectorSplitsEvalHoldoutAndBoundsBuffers) {
  CollectorConfig config;
  config.max_alarm_steps = 1000;
  config.eval_every = 4;
  config.buffer_windows = 5;
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  for (const auto& event : training_events()) collector.observe(event);
  collector.flush();
  const std::size_t admitted = store().size();
  EXPECT_EQ(collector.eval_windows().size(), admitted / 4);
  EXPECT_LE(collector.buffered_windows(), 5 * detector().cluster_count());
  // The eval mark partitions the stream.
  const std::size_t mark = collector.eval_windows_seen();
  EXPECT_EQ(collector.eval_windows_since(mark).size(), 0u);
  EXPECT_EQ(collector.eval_windows_since(0).size(), collector.eval_windows().size());
}

TEST_F(LearnFixture, CollectorSweepRecordsCloseIdleWindows) {
  CollectorConfig config;
  config.gap_seconds = 10.0;
  config.max_alarm_steps = 1000;
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  serve::WalRecord record;
  record.type = serve::WalRecord::kEvent;
  record.event.user_id = "u";
  record.event.session_id = "s";
  record.event.has_timestamp = true;
  for (int i = 0; i < 3; ++i) {
    record.event.action = store().vocab().name(i);
    record.event.timestamp = static_cast<double>(i);
    record.seq = static_cast<std::uint64_t>(i + 1);
    collector.observe(record);
  }
  EXPECT_EQ(collector.open_windows(), 1u);
  serve::WalRecord sweep;
  sweep.type = serve::WalRecord::kSweep;
  sweep.sweep_now = 100.0;  // past the gap
  collector.observe(sweep);
  EXPECT_EQ(collector.open_windows(), 0u);
  EXPECT_EQ(collector.buffered_windows() + collector.eval_windows().size(), 1u);
}

TEST_F(LearnFixture, CollectorIsDeterministic) {
  const auto run = [this] {
    CollectorConfig config;
    config.max_alarm_steps = 1000;
    SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
    for (const auto& event : training_events()) collector.observe(event);
    collector.flush();
    return collector.training_windows();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Incremental trainer.

TEST_F(LearnFixture, FineTuneIsByteDeterministic) {
  CollectorConfig config;
  config.max_alarm_steps = 1000;
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  for (const auto& event : training_events()) collector.observe(event);
  collector.flush();
  const auto windows = collector.training_windows();

  core::FineTuneConfig ft;
  ft.epochs = 1;
  ft.lda_iterations = 4;
  core::FineTuneReport report_a;
  core::FineTuneReport report_b;
  const std::string a = serialize(core::MisuseDetector::fine_tune(detector(), windows, ft, &report_a));
  const std::string b = serialize(core::MisuseDetector::fine_tune(detector(), windows, ft, &report_b));
  EXPECT_EQ(a, b) << "same parent + windows + config must give bit-identical candidates";
  EXPECT_NE(a, serialize(detector())) << "fine-tune was a no-op";
  ASSERT_EQ(report_a.clusters.size(), detector().cluster_count());
  EXPECT_EQ(report_a.windows, report_b.windows);
  std::size_t tuned = 0;
  for (const auto& stats : report_a.clusters) tuned += stats.tuned ? 1 : 0;
  EXPECT_GE(tuned, 1u) << "no cluster had enough windows to tune";
}

// ---------------------------------------------------------------------------
// Promotion policy: every guardrail pinned individually.

TEST(LearnPolicy, GuardrailOrderAndReasons) {
  PolicyConfig config;
  ShadowEvaluation good;
  good.steps = 1000;
  good.verdict_flips = 0;
  good.mean_loss_delta = 0.0;
  good.drift_active = 0.02;
  good.drift_candidate = 0.02;

  // Healthy evidence promotes.
  EXPECT_EQ(evaluate_candidate(config, false, false, good).decision, Decision::kPromote);
  EXPECT_EQ(evaluate_candidate(config, false, false, good).reason, "guardrails_passed");

  // Degraded clusters block promotion on either side, before anything else.
  EXPECT_EQ(evaluate_candidate(config, true, false, good).reason, "degraded_clusters");
  EXPECT_EQ(evaluate_candidate(config, false, true, good).reason, "degraded_clusters");

  // The evaluation budget must be met.
  ShadowEvaluation thin = good;
  thin.steps = config.eval_budget_steps - 1;
  EXPECT_EQ(evaluate_candidate(config, false, false, thin).reason, "insufficient_evidence");

  // Verdict-flip rate beyond threshold rejects.
  ShadowEvaluation flippy = good;
  flippy.verdict_flips = static_cast<std::size_t>(
      static_cast<double>(flippy.steps) * (config.max_flip_rate + 0.01));
  EXPECT_EQ(evaluate_candidate(config, false, false, flippy).reason, "verdict_flip_rate");

  // Loss-delta regression rejects.
  ShadowEvaluation lossy = good;
  lossy.mean_loss_delta = config.max_loss_delta + 0.01;
  EXPECT_EQ(evaluate_candidate(config, false, false, lossy).reason, "loss_delta");

  // Drift-gauge regression rejects.
  ShadowEvaluation drifty = good;
  drifty.drift_candidate = drifty.drift_active + config.drift_margin + 0.01;
  EXPECT_EQ(evaluate_candidate(config, false, false, drifty).reason, "drift_regression");
}

TEST(LearnPolicy, WatchRollsBackOnPostPromotionDrift) {
  PolicyConfig config;
  EXPECT_EQ(evaluate_watch(config, 0.02, 0.02).decision, Decision::kSkip);
  EXPECT_EQ(evaluate_watch(config, 0.02, 0.02 + config.rollback_drift_margin + 0.001).decision,
            Decision::kRollback);
  EXPECT_EQ(evaluate_watch(config, 0.02, 0.05).reason, "post_promotion_drift");
}

TEST(LearnAudit, RecordsAreFlatOneLineJson) {
  AuditRecord record;
  record.cycle = 3;
  record.decision = Decision::kPromote;
  record.reason = "guardrails_passed";
  record.candidate = 2;
  record.parent = 1;
  record.eval.steps = 100;
  record.eval.verdict_flips = 1;
  const std::string line = render_audit_record(record);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "audit record spans lines";
  EXPECT_NE(line.find("\"decision\":\"promote\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"flip_rate\":0.01"), std::string::npos) << line;
  // No wall-clock field anywhere: determinism depends on it.
  EXPECT_EQ(line.find("time"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// The full loop.

TEST_F(LearnFixture, LoopPromotesOnHealthyEvidenceAndIsByteDeterministic) {
  const auto run = [this](const std::string& name) {
    const std::string root = seeded_registry(name);
    LearnLoop loop(root, lenient_config());
    for (const auto& event : training_events()) loop.observe(event);
    loop.flush();
    const AuditRecord record = loop.run_cycle();
    return std::tuple<std::string, AuditRecord, std::string, std::string>(
        root, record,
        read_file(root + "/learn_audit.ndjson").value_or(""),
        read_file(registry::ModelRegistry(root).archive_path(record.candidate)).value_or(""));
  };

  const auto [root_a, record_a, audit_a, archive_a] = run("loop_a");
  const auto [root_b, record_b, audit_b, archive_b] = run("loop_b");

  // Promotion happened and the registry shows it.
  EXPECT_EQ(record_a.decision, Decision::kPromote);
  EXPECT_EQ(record_a.reason, "guardrails_passed");
  EXPECT_EQ(record_a.parent, 1u);
  EXPECT_EQ(record_a.candidate, 2u);
  registry::ModelRegistry registry(root_a);
  EXPECT_EQ(registry.current(), 2u);
  EXPECT_EQ(registry.metadata(2)->parent, 1u) << "candidate published without a lineage stamp";
  EXPECT_GT(record_a.eval.steps, 0u);

  // Byte-identical across two independent runs: archives, audit, decision.
  EXPECT_FALSE(archive_a.empty());
  EXPECT_EQ(archive_a, archive_b) << "candidate archives differ across identical runs";
  EXPECT_EQ(audit_a, audit_b) << "audit logs differ across identical runs";
  EXPECT_EQ(record_a.decision, record_b.decision);
  EXPECT_EQ(record_a.eval.verdict_flips, record_b.eval.verdict_flips);
}

TEST_F(LearnFixture, LoopRejectsWhenFlipGuardTrips) {
  const std::string root = seeded_registry("reject_flip");
  LearnLoopConfig config = lenient_config();
  config.policy.max_flip_rate = -1.0;  // any flip rate (even 0) trips the guard
  LearnLoop loop(root, config);
  for (const auto& event : training_events()) loop.observe(event);
  loop.flush();
  const AuditRecord record = loop.run_cycle();
  EXPECT_EQ(record.decision, Decision::kReject);
  EXPECT_EQ(record.reason, "verdict_flip_rate");
  registry::ModelRegistry registry(root);
  EXPECT_EQ(registry.current(), 1u) << "rejected candidate reached active";
  ASSERT_TRUE(record.candidate != 0);
  EXPECT_EQ(registry.metadata(record.candidate)->state, registry::VersionState::kRetired);
  // The audit trail records the rejection.
  const std::string audit = read_file(root + "/learn_audit.ndjson").value_or("");
  EXPECT_NE(audit.find("\"reason\":\"verdict_flip_rate\""), std::string::npos) << audit;
}

// misusedet_learnd refuses a flag it does not read before it opens the
// registry: exit 2, naming the flag (--no-X counts as X), and no audit or
// status file. A mistyped --max-cycle would otherwise run unlimited
// cycles.
TEST_F(LearnFixture, CliRejectsUnknownFlagsAndWritesNothing) {
  const std::string root = seeded_registry("cli");
  const std::string err = scratch() + "cli.err";
  const std::string audit = scratch() + "cli_audit.ndjson";
  const std::string status = scratch() + "cli_status";
  const auto run = [&](const std::string& args) {
    const std::string command = std::string(MISUSEDET_LEARND_BIN) + " --registry=" + root +
                                " --audit=" + audit + " --status=" + status + " " + args +
                                " > /dev/null 2> " + err;
    const int rc = std::system(command.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  const auto stderr_text = [&] { return read_file(err).value_or(""); };
  EXPECT_EQ(run("--max-cycle=1 /dev/null"), 2);
  EXPECT_NE(stderr_text().find("unknown flag --max-cycle"), std::string::npos) << stderr_text();
  EXPECT_EQ(run("--no-dry-run /dev/null"), 2);
  EXPECT_NE(stderr_text().find("unknown flag --dry-run"), std::string::npos) << stderr_text();
  EXPECT_FALSE(fs::exists(audit));
  EXPECT_FALSE(fs::exists(status));

  EXPECT_EQ(run("--help"), 0) << stderr_text();
  // The flags it reads, negated ones included, still run a cycle.
  EXPECT_EQ(run("--max-cycles=1 --no-once /dev/null"), 0) << stderr_text();
  EXPECT_NE(read_file(audit).value_or("").find("\"reason\":\"insufficient_windows\""),
            std::string::npos);
  EXPECT_EQ(registry::ModelRegistry(root).list().size(), 1u);
}

TEST_F(LearnFixture, LoopSkipsWithoutEnoughWindows) {
  const std::string root = seeded_registry("skip");
  LearnLoop loop(root, lenient_config());
  const AuditRecord record = loop.run_cycle();
  EXPECT_EQ(record.decision, Decision::kSkip);
  EXPECT_EQ(record.reason, "insufficient_windows");
  EXPECT_EQ(registry::ModelRegistry(root).list().size(), 1u) << "skip published something";
}

TEST_F(LearnFixture, LoopRejectsDegradedActiveBeforeTraining) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string root = seeded_registry("degraded");
  failpoints::configure("detector.load.lstm=always");
  LearnLoop loop(root, lenient_config());  // active loads with every cluster degraded
  failpoints::clear();
  for (const auto& event : training_events()) loop.observe(event);
  loop.flush();
  const AuditRecord record = loop.run_cycle();
  EXPECT_EQ(record.decision, Decision::kReject);
  EXPECT_EQ(record.reason, "degraded_clusters");
  EXPECT_EQ(record.candidate, 0u) << "a candidate was trained from a degraded model";
  EXPECT_EQ(registry::ModelRegistry(root).list().size(), 1u);
}

TEST_F(LearnFixture, LoopRejectsCorruptCandidateAtPublish) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string root = seeded_registry("corrupt");
  LearnLoop loop(root, lenient_config());
  for (const auto& event : training_events()) loop.observe(event);
  loop.flush();
  failpoints::configure("learn.train.corrupt=always");
  const AuditRecord record = loop.run_cycle();
  failpoints::clear();
  EXPECT_EQ(record.decision, Decision::kReject);
  EXPECT_EQ(record.reason, "candidate_invalid");
  registry::ModelRegistry registry(root);
  EXPECT_EQ(registry.current(), 1u);
  EXPECT_EQ(registry.list().size(), 1u) << "corrupt candidate landed in the registry";
  EXPECT_FALSE(fs::exists(root + "/candidate.inflight.bin")) << "staging temp file leaked";
}

TEST_F(LearnFixture, WatchRollsBackOnDriftRegressionAndOnlyThen) {
  const auto scenario = [this](const std::string& name, double rollback_margin) {
    const std::string root = seeded_registry(name);
    LearnLoopConfig config = lenient_config();
    config.collector.eval_every = 3;
    config.min_train_windows = 8;
    config.watch_min_windows = 2;
    config.policy.rollback_drift_margin = rollback_margin;
    LearnLoop loop(root, config);
    for (const auto& event : training_events()) loop.observe(event);
    loop.flush();
    const AuditRecord decision = loop.run_cycle();
    EXPECT_EQ(decision.decision, Decision::kPromote) << decision.reason;
    EXPECT_TRUE(loop.watch_armed());
    // Phase 2: the stream turns pathological after the promotion.
    for (const auto& event : drifted_events(9, 1.0e6)) loop.observe(event);
    loop.flush();
    return std::make_pair(root, loop.watch());
  };

  // Guard armed with the default margin: the drift regression rolls back.
  const auto [root, rollback] = scenario("watch_rollback", 0.01);
  ASSERT_TRUE(rollback.has_value()) << "post-promotion drift did not roll back";
  EXPECT_EQ(rollback->decision, Decision::kRollback);
  EXPECT_EQ(rollback->reason, "post_promotion_drift");
  EXPECT_EQ(rollback->parent, 1u);
  registry::ModelRegistry registry(root);
  EXPECT_EQ(registry.current(), 1u) << "rollback did not re-activate the parent";

  // Remove the guard (infinite margin): the same drift is tolerated —
  // this leg fails if the rollback path triggers unconditionally.
  const auto [root_loose, no_rollback] = scenario("watch_tolerant", 1e9);
  EXPECT_FALSE(no_rollback.has_value());
  EXPECT_EQ(registry::ModelRegistry(root_loose).current(), 2u);
}

TEST_F(LearnFixture, ShadowEvaluateMatchesServeSemantics) {
  // Identical models: zero flips, zero loss delta, equal drift.
  CollectorConfig config;
  config.max_alarm_steps = 1000;
  config.eval_every = 1;
  SessionWindowCollector collector(shared_detector(detector()), core::MonitorConfig{}, config);
  for (const auto& event : training_events()) collector.observe(event);
  collector.flush();
  const auto windows = collector.eval_windows();
  ASSERT_GT(windows.size(), 10u);
  const ShadowEvaluation eval = shadow_evaluate(detector(), detector(), core::MonitorConfig{},
                                                core::DriftConfig{}, windows);
  EXPECT_GT(eval.steps, 0u);
  EXPECT_EQ(eval.verdict_flips, 0u);
  EXPECT_EQ(eval.mean_loss_delta, 0.0);
  EXPECT_EQ(eval.drift_active, eval.drift_candidate);
  EXPECT_EQ(eval.sessions, windows.size());
}

}  // namespace
}  // namespace misuse::learn
