// Model registry: metadata round-trip, publish/promote/rollback
// lifecycle, crash-safety under failpoints (a failed publish or promote
// never moves CURRENT), GC safety under randomized op interleavings
// (active/pinned/canary versions provably survive), and load-time
// integrity (a replaced archive is a hard error).
#include "registry/registry.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "synth/portal.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::registry {
namespace {

namespace fs = std::filesystem;

TEST(RegistryMetadata, VersionNames) {
  EXPECT_EQ(version_name(3), "v3");
  EXPECT_EQ(version_name(120), "v120");
  EXPECT_EQ(parse_version_name("v12"), 12u);
  EXPECT_EQ(parse_version_name("v0"), 0u);
  EXPECT_FALSE(parse_version_name("12"));
  EXPECT_FALSE(parse_version_name("v"));
  EXPECT_FALSE(parse_version_name("vx2"));
  EXPECT_FALSE(parse_version_name("v1 "));
  EXPECT_FALSE(parse_version_name(""));
}

TEST(RegistryMetadata, RoundTripPreservesEveryField) {
  VersionMetadata meta;
  meta.version = 7;
  meta.state = VersionState::kCanary;
  meta.parent = 6;
  // High bits set on purpose: a double-typed JSON number would lose them.
  meta.vocab_hash = 0xffeeddccbbaa9988ULL;
  meta.archive_crc = 0xdeadbeefu;
  meta.archive_bytes = 123456;
  meta.clusters = 4;
  meta.vocab_size = 60;
  meta.pinned = true;
  meta.created_unix = 1754000000;
  meta.note = "retrained on June data";

  const auto parsed = parse_metadata(render_metadata(meta));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, meta.version);
  EXPECT_EQ(parsed->state, meta.state);
  EXPECT_EQ(parsed->parent, meta.parent);
  EXPECT_EQ(parsed->vocab_hash, meta.vocab_hash);
  EXPECT_EQ(parsed->archive_crc, meta.archive_crc);
  EXPECT_EQ(parsed->archive_bytes, meta.archive_bytes);
  EXPECT_EQ(parsed->clusters, meta.clusters);
  EXPECT_EQ(parsed->vocab_size, meta.vocab_size);
  EXPECT_EQ(parsed->pinned, meta.pinned);
  EXPECT_EQ(parsed->created_unix, meta.created_unix);
  EXPECT_EQ(parsed->note, meta.note);
}

TEST(RegistryMetadata, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_metadata("not json"));
  EXPECT_FALSE(parse_metadata("{}"));
  EXPECT_FALSE(parse_metadata(R"({"version": 1})"));
}

// ---------------------------------------------------------------------------
// Registry tests against real trained archives (trained once per suite).

class RegistryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs::create_directories(scratch());
    archive_ = new std::string(save_archive(train(60, 42), "registry_a.bin"));
    // A second detector with a different action vocabulary: its archive
    // is valid but fingerprint-incompatible with the first.
    other_archive_ = new std::string(save_archive(train(45, 7), "registry_b.bin"));
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete other_archive_;
    archive_ = nullptr;
    other_archive_ = nullptr;
    fs::remove_all(scratch());
  }

  /// This process's own directory for every file the suite writes:
  /// gtest_discover_tests runs each TEST in a separate process, and under
  /// `ctest -j` those run at once, so a fixed path would let one process
  /// truncate or delete an archive another is loading.
  static std::string scratch() {
    return ::testing::TempDir() + "misusedet_registry_" + std::to_string(::getpid()) + "/";
  }

  static core::MisuseDetector train(int actions, std::uint64_t seed) {
    synth::PortalConfig pc;
    pc.sessions = 160;
    pc.users = 30;
    pc.action_count = actions;
    pc.seed = seed;
    SessionStore store(synth::Portal(pc).generate());
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {8};
    dc.ensemble.iterations = 6;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 1;
    dc.lm.patience = 0;
    return core::MisuseDetector::train(store, dc);
  }

  static std::string save_archive(const core::MisuseDetector& detector, const std::string& name) {
    const std::string path = scratch() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    BinaryWriter writer(out);
    detector.save(writer);
    return path;
  }

  /// A fresh, empty registry root per test.
  static std::string fresh_root(const std::string& name) {
    const std::string root = scratch() + "root_" + name;
    fs::remove_all(root);
    return root;
  }

  static const std::string& archive() { return *archive_; }
  static const std::string& other_archive() { return *other_archive_; }

 private:
  static std::string* archive_;
  static std::string* other_archive_;
};

std::string* RegistryFixture::archive_ = nullptr;
std::string* RegistryFixture::other_archive_ = nullptr;

TEST_F(RegistryFixture, PublishCreatesStagingAndNeverTouchesCurrent) {
  ModelRegistry registry(fresh_root("publish"));
  EXPECT_FALSE(registry.current().has_value());
  const std::uint64_t v = registry.publish(archive(), "first");
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(registry.current().has_value());  // publish is not promote

  const auto meta = registry.metadata(v);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->state, VersionState::kStaging);
  EXPECT_EQ(meta->note, "first");
  EXPECT_GT(meta->archive_bytes, 0u);
  EXPECT_GT(meta->clusters, 0u);
  EXPECT_GT(meta->vocab_size, 0u);
  EXPECT_NE(meta->vocab_hash, 0u);
  // The stored archive is bit-for-bit what was published.
  EXPECT_EQ(fs::file_size(registry.archive_path(v)), meta->archive_bytes);
  EXPECT_EQ(registry.load(v)->vocab().fingerprint(), meta->vocab_hash);
}

TEST_F(RegistryFixture, PublishRejectsCorruptArchive) {
  const std::string root = fresh_root("reject");
  const std::string bogus = root + "_bogus.bin";
  fs::create_directories(root);
  std::ofstream(bogus, std::ios::binary) << "this is not a detector archive";
  ModelRegistry registry(root);
  try {
    registry.publish(bogus);
    FAIL() << "corrupt archive accepted";
  } catch (const RegistryError& e) {
    EXPECT_NE(std::string(e.what()).find("publish rejected"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(bogus), std::string::npos)
        << "error should carry the file path: " << e.what();
  }
  EXPECT_TRUE(registry.list().empty());
}

// The operator CLI rejects flags no command reads instead of ignoring
// them: a dropped option such as --quantize must not publish anything.
TEST_F(RegistryFixture, CliRejectsUnknownFlagsAndPublishesNothing) {
  const std::string root = fresh_root("cli");
  const std::string err = root + "_cli.err";
  const auto run = [&](const std::string& args) {
    const std::string command =
        std::string(MISUSEDET_REGISTRY_BIN) + " " + args + " > /dev/null 2> " + err;
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const auto stderr_text = [&] {
    std::ifstream in(err);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(run("publish --root=" + root + " " + archive() + " --quantize=int8"), 2);
  EXPECT_NE(stderr_text().find("unknown flag --quantize"), std::string::npos) << stderr_text();
  EXPECT_EQ(run("list --root=" + root + " --no-verbose"), 2);
  EXPECT_NE(stderr_text().find("unknown flag --verbose"), std::string::npos) << stderr_text();
  EXPECT_TRUE(ModelRegistry(root).list().empty());

  EXPECT_EQ(run("publish --root=" + root + " " + archive() + " --note=cli"), 0) << stderr_text();
  EXPECT_EQ(run("list --root=" + root + " --no-json"), 0) << stderr_text();
  EXPECT_EQ(run("--help"), 0) << stderr_text();
  ASSERT_EQ(ModelRegistry(root).list().size(), 1u);
  EXPECT_EQ(ModelRegistry(root).list().front().note, "cli");
}

TEST_F(RegistryFixture, LifecyclePromoteRollback) {
  ModelRegistry registry(fresh_root("lifecycle"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);  // staging -> canary
  EXPECT_EQ(registry.canary(), v1);
  EXPECT_FALSE(registry.current().has_value());
  registry.promote(v1);  // canary -> active
  EXPECT_EQ(registry.current(), v1);
  EXPECT_FALSE(registry.canary().has_value());

  const std::uint64_t v2 = registry.publish(archive());
  EXPECT_EQ(v2, 2u);
  registry.promote(v2);
  registry.promote(v2);
  EXPECT_EQ(registry.current(), v2);
  EXPECT_EQ(registry.metadata(v2)->parent, v1);
  EXPECT_EQ(registry.metadata(v1)->state, VersionState::kRetired);

  registry.rollback();  // back to the recorded parent
  EXPECT_EQ(registry.current(), v1);
  EXPECT_EQ(registry.metadata(v1)->state, VersionState::kActive);
  EXPECT_EQ(registry.metadata(v2)->state, VersionState::kRetired);

  registry.rollback_to(v2);  // roll forward again, explicitly
  EXPECT_EQ(registry.current(), v2);
  registry.rollback_to(v2);  // idempotent
  EXPECT_EQ(registry.current(), v2);
}

TEST_F(RegistryFixture, PromoteGuards) {
  ModelRegistry registry(fresh_root("guards"));
  const std::uint64_t v1 = registry.publish(archive());
  const std::uint64_t v2 = registry.publish(archive());
  registry.promote(v1);                            // v1 is the canary
  EXPECT_THROW(registry.promote(v2), RegistryError);  // only one canary
  registry.promote(v1);                            // v1 active
  EXPECT_THROW(registry.promote(v1), RegistryError);  // already active
  registry.promote(v2);
  registry.promote(v2);  // v2 active, v1 retired
  EXPECT_THROW(registry.promote(v1), RegistryError);  // retired: rollback instead
  EXPECT_THROW(registry.promote(99), RegistryError);  // unknown version
  EXPECT_THROW(registry.rollback_to(99), RegistryError);
}

TEST_F(RegistryFixture, RollbackWithoutParentThrows) {
  ModelRegistry registry(fresh_root("noparent"));
  EXPECT_THROW(registry.rollback(), RegistryError);  // nothing active
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);
  EXPECT_THROW(registry.rollback(), RegistryError);  // v1 records no parent
}

TEST_F(RegistryFixture, ListSkipsUnfinishedAndForgedDirectories) {
  const std::string root = fresh_root("skips");
  ModelRegistry registry(root);
  const std::uint64_t v1 = registry.publish(archive());
  // An unfinished publish: directory without meta.json.
  fs::create_directories(root + "/v99");
  // A forged directory: meta.json copied from another version.
  fs::create_directories(root + "/v98");
  fs::copy_file(root + "/v1/meta.json", root + "/v98/meta.json");
  const auto versions = registry.list();
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].version, v1);
  EXPECT_FALSE(registry.metadata(98).has_value());
  // And the next publish number skips past nothing real.
  EXPECT_EQ(registry.publish(archive()), 2u);
}

TEST_F(RegistryFixture, LoadDetectsReplacedArchive) {
  ModelRegistry registry(fresh_root("replaced"));
  const std::uint64_t v1 = registry.publish(archive());
  // Swap in a valid archive with a different vocabulary behind the
  // registry's back — exactly the silent-corruption case load() guards.
  fs::copy_file(other_archive(), registry.archive_path(v1), fs::copy_options::overwrite_existing);
  try {
    registry.load(v1);
    FAIL() << "replaced archive loaded";
  } catch (const RegistryError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos) << e.what();
  }
}

TEST_F(RegistryFixture, LoadErrorCarriesPathOnMissingArchive) {
  ModelRegistry registry(fresh_root("missing"));
  const std::uint64_t v1 = registry.publish(archive());
  fs::remove(registry.archive_path(v1));
  try {
    registry.load(v1);
    FAIL() << "missing archive loaded";
  } catch (const RegistryError& e) {
    EXPECT_NE(std::string(e.what()).find(registry.archive_path(v1)), std::string::npos) << e.what();
  }
}

TEST_F(RegistryFixture, PublishParentStampIsAuthoritative) {
  ModelRegistry registry(fresh_root("parent_stamp"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);  // v1 active

  // The trainer stamps the version it fine-tuned from at publish time.
  const std::uint64_t v2 = registry.publish(archive(), "fine-tuned", v1);
  EXPECT_EQ(registry.metadata(v2)->parent, v1);
  // A parent that does not exist is a hard error, not a dangling stamp.
  EXPECT_THROW(registry.publish(archive(), "bad parent", 77), RegistryError);

  // Promote must keep the explicit stamp even when something else was
  // active in between (the stamp records derivation, not succession).
  const std::uint64_t v3 = registry.publish(archive());
  registry.promote(v3);
  registry.promote(v3);  // v3 active now
  registry.promote(v2);
  registry.promote(v2);
  EXPECT_EQ(registry.metadata(v2)->parent, v1) << "promote overwrote the publish-time parent";
}

TEST_F(RegistryFixture, LineageWalksTheParentChain) {
  ModelRegistry registry(fresh_root("lineage"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);
  const std::uint64_t v2 = registry.publish(archive(), "gen 2", v1);
  registry.promote(v2);
  registry.promote(v2);
  const std::uint64_t v3 = registry.publish(archive(), "gen 3", v2);

  const auto chain = registry.lineage(v3);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].version, v3);
  EXPECT_EQ(chain[1].version, v2);
  EXPECT_EQ(chain[2].version, v1);
  EXPECT_EQ(registry.lineage(v1).size(), 1u);  // no parent: chain of one
  EXPECT_THROW(registry.lineage(99), RegistryError);

  // A gc'd ancestor truncates the chain instead of throwing: the
  // remaining stamp still names the missing version.
  fs::remove_all(registry.version_dir(v1));
  const auto truncated = registry.lineage(v3);
  ASSERT_EQ(truncated.size(), 2u);
  EXPECT_EQ(truncated.back().parent, v1);
}

TEST_F(RegistryFixture, RetireDemotesStagingAndCanaryButNeverActive) {
  ModelRegistry registry(fresh_root("retire"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);  // active

  const std::uint64_t v2 = registry.publish(archive());  // staging
  registry.retire(v2);
  EXPECT_EQ(registry.metadata(v2)->state, VersionState::kRetired);
  registry.retire(v2);  // idempotent

  const std::uint64_t v3 = registry.publish(archive());
  registry.promote(v3);  // canary
  EXPECT_EQ(registry.canary(), v3);
  registry.retire(v3);
  EXPECT_FALSE(registry.canary().has_value());
  EXPECT_EQ(registry.metadata(v3)->state, VersionState::kRetired);

  EXPECT_THROW(registry.retire(v1), RegistryError);  // active: rollback first
  EXPECT_THROW(registry.retire(99), RegistryError);
  EXPECT_EQ(registry.current(), v1);
}

TEST_F(RegistryFixture, GcKeepsParentsOfLiveVersions) {
  ModelRegistry registry(fresh_root("gc_parent"));
  std::vector<std::uint64_t> versions;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t v = versions.empty() ? registry.publish(archive())
                                             : registry.publish(archive(), "", versions.back());
    registry.promote(v);
    registry.promote(v);
    versions.push_back(v);
  }
  // v5 active with parent v4: even gc(0) must keep v4 — it is the active
  // version's rollback target — while v1..v3 (parents of retired versions
  // only) are collectable.
  const auto removed = registry.gc(0);
  EXPECT_EQ(removed, (std::vector<std::uint64_t>{versions[0], versions[1], versions[2]}));
  ASSERT_TRUE(fs::exists(registry.archive_path(versions[3])));
  registry.rollback();  // the protected parent must actually serve
  EXPECT_EQ(registry.current(), versions[3]);
  EXPECT_NE(registry.load(versions[3]), nullptr);
}

TEST_F(RegistryFixture, GcKeepsNewestRetired) {
  ModelRegistry registry(fresh_root("gc"));
  std::vector<std::uint64_t> versions;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t v = registry.publish(archive());
    registry.promote(v);
    registry.promote(v);
    versions.push_back(v);
  }
  // v5 active; v1..v4 retired. v4 is the active version's inferred parent
  // (rollback target), so it is protected outright and the keep-2 budget
  // applies to the remaining pool {v3, v2} — only v1 is collectable.
  const auto removed = registry.gc(2);
  EXPECT_EQ(removed, (std::vector<std::uint64_t>{versions[0]}));
  EXPECT_FALSE(fs::exists(registry.version_dir(versions[0])));
  EXPECT_TRUE(fs::exists(registry.version_dir(versions[1])));
  EXPECT_TRUE(fs::exists(registry.version_dir(versions[2])));
  EXPECT_TRUE(fs::exists(registry.version_dir(versions[3])));
  EXPECT_EQ(registry.current(), versions[4]);
  // The survivors are still loadable (rollback depth intact).
  registry.rollback_to(versions[2]);
  EXPECT_NE(registry.load(versions[2]), nullptr);
}

// The GC safety property, adversarially: a randomized interleaving of
// publish/promote/rollback/pin/gc ops must never leave the registry
// without its active version, its canary, or any pinned version —
// whatever order the ops land in.
TEST_F(RegistryFixture, GcNeverRemovesActivePinnedOrCanaryUnderRandomOps) {
  ModelRegistry registry(fresh_root("gc_random"));
  Rng rng(20260806);
  const auto pick_version = [&](const std::vector<VersionMetadata>& versions) {
    return versions[static_cast<std::size_t>(rng.uniform() * versions.size()) % versions.size()]
        .version;
  };
  for (int op = 0; op < 120; ++op) {
    const double roll = rng.uniform();
    // Lifecycle-rule violations (double promote, rollback without
    // parent...) are expected here; only GC safety is under test.
    try {
      const auto versions = registry.list();
      if (roll < 0.25 || versions.empty()) {
        // Half the publishes stamp a parent, like the learn loop does.
        if (!versions.empty() && rng.uniform() < 0.5) {
          registry.publish(archive(), "", pick_version(versions));
        } else {
          registry.publish(archive());
        }
      } else if (roll < 0.50) {
        registry.promote(pick_version(versions));
      } else if (roll < 0.60) {
        registry.rollback_to(pick_version(versions));
      } else if (roll < 0.70) {
        registry.retire(pick_version(versions));
      } else if (roll < 0.80) {
        registry.pin(pick_version(versions), rng.uniform() < 0.5);
      } else {
        // Parents of live (staging/canary/active) versions are rollback
        // targets; record which exist going in, assert they survive.
        const auto current_before = registry.current();
        std::set<std::uint64_t> rollback_targets;
        for (const auto& meta : registry.list()) {
          const bool live = meta.state != VersionState::kRetired ||
                            (current_before && *current_before == meta.version);
          if (live && meta.parent != 0 && registry.metadata(meta.parent).has_value()) {
            rollback_targets.insert(meta.parent);
          }
        }
        registry.gc(static_cast<std::size_t>(rng.uniform() * 3.0));
        for (const std::uint64_t parent : rollback_targets) {
          ASSERT_TRUE(fs::exists(registry.archive_path(parent)))
              << "gc removed rollback target v" << parent << " at op " << op;
        }
      }
    } catch (const RegistryError&) {
    }

    // Invariant sweep after every op.
    const auto current = registry.current();
    if (current) {
      ASSERT_TRUE(fs::exists(registry.archive_path(*current)))
          << "gc removed the active version v" << *current << " at op " << op;
      ASSERT_TRUE(registry.metadata(*current).has_value());
    }
    const auto canary = registry.canary();
    if (canary) {
      ASSERT_TRUE(fs::exists(registry.archive_path(*canary)))
          << "gc removed the canary v" << *canary << " at op " << op;
    }
    for (const auto& meta : registry.list()) {
      if (meta.pinned) {
        ASSERT_TRUE(fs::exists(registry.archive_path(meta.version)))
            << "gc removed pinned v" << meta.version << " at op " << op;
      }
    }
  }
  // Whatever survived must still serve.
  if (const auto current = registry.current()) {
    EXPECT_NE(registry.load(*current), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Crash safety (failpoints): a publish or promote that dies mid-flight
// must leave the previous good state serving.

TEST_F(RegistryFixture, CrashMidPublishPublishesNothing) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  ModelRegistry registry(fresh_root("crash_publish"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);

  // Die writing the archive: nothing new becomes visible.
  failpoints::configure("registry.publish.archive=always");
  EXPECT_THROW(registry.publish(archive()), RegistryError);
  failpoints::clear();
  EXPECT_EQ(registry.list().size(), 1u);
  EXPECT_EQ(registry.current(), v1);

  // Die after the archive, before the metadata: the orphan directory is
  // invisible to scans and the next publish reuses its number.
  failpoints::configure("registry.publish.meta=always");
  EXPECT_THROW(registry.publish(archive()), RegistryError);
  failpoints::clear();
  EXPECT_EQ(registry.list().size(), 1u);
  EXPECT_EQ(registry.current(), v1);
  const std::uint64_t v2 = registry.publish(archive());
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.list().size(), 2u);
}

TEST_F(RegistryFixture, CrashMidPromoteKeepsPreviousCurrent) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  ModelRegistry registry(fresh_root("crash_promote"));
  const std::uint64_t v1 = registry.publish(archive());
  registry.promote(v1);
  registry.promote(v1);
  const std::uint64_t v2 = registry.publish(archive());
  registry.promote(v2);  // canary

  // Die between the candidate's metadata write and the CURRENT flip.
  failpoints::configure("registry.promote.current=always");
  EXPECT_THROW(registry.promote(v2), RegistryError);
  failpoints::clear();
  EXPECT_EQ(registry.current(), v1) << "a failed promote moved CURRENT";
  EXPECT_NE(registry.load(v1), nullptr);

  // GC in the crashed state must not eat the actually-serving version,
  // even though v2's metadata now (wrongly) claims active.
  registry.gc(0);
  EXPECT_TRUE(fs::exists(registry.archive_path(v1)));

  // Recovery: redoing the flip (rollback_to is the redo) completes the
  // promote and reconciles the stale metadata.
  registry.rollback_to(v2);
  EXPECT_EQ(registry.current(), v2);
  EXPECT_EQ(registry.metadata(v1)->state, VersionState::kRetired);
}

}  // namespace
}  // namespace misuse::registry
