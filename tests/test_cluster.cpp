#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cluster/assigner.hpp"
#include "cluster/expert_policy.hpp"
#include "util/rng.hpp"

namespace misuse::cluster {
namespace {

// --- agglomerate_by_similarity ------------------------------------------

Matrix block_similarity(std::size_t block_size, std::size_t blocks, float within, float between) {
  const std::size_t n = block_size * blocks;
  Matrix sim(n, n, between);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i / block_size == j / block_size) sim(i, j) = within;
    }
    sim(i, i) = 1.0f;
  }
  return sim;
}

TEST(Agglomerate, RecoversBlockStructure) {
  const Matrix sim = block_similarity(4, 3, 0.9f, 0.1f);
  const auto groups = agglomerate_by_similarity(sim, 3);
  ASSERT_EQ(groups.size(), 12u);
  // All members of a block share a group; different blocks differ.
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(groups[b * 4], groups[b * 4 + i]);
    }
  }
  EXPECT_NE(groups[0], groups[4]);
  EXPECT_NE(groups[4], groups[8]);
}

TEST(Agglomerate, SingleGroupMergesEverything) {
  const Matrix sim = block_similarity(3, 2, 0.9f, 0.2f);
  const auto groups = agglomerate_by_similarity(sim, 1);
  for (std::size_t g : groups) EXPECT_EQ(g, 0u);
}

TEST(Agglomerate, TargetEqualToItemsKeepsSingletons) {
  const Matrix sim = block_similarity(2, 2, 0.9f, 0.1f);
  const auto groups = agglomerate_by_similarity(sim, 4);
  std::set<std::size_t> distinct(groups.begin(), groups.end());
  EXPECT_EQ(distinct.size(), 4u);
}

// --- ExpertPolicy over a synthetic ensemble ------------------------------

std::vector<std::vector<int>> grouped_corpus(std::size_t groups, std::size_t per_group,
                                             std::size_t actions_per_group, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> docs;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t d = 0; d < per_group; ++d) {
      std::vector<int> doc;
      const std::size_t len = 6 + rng.uniform_index(8);
      for (std::size_t i = 0; i < len; ++i) {
        doc.push_back(static_cast<int>(g * actions_per_group +
                                       rng.uniform_index(actions_per_group)));
      }
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

TEST(ExpertPolicy, PartitionCoversAllSessions) {
  const auto docs = grouped_corpus(3, 30, 4, 1);
  topics::EnsembleConfig ec;
  ec.topic_counts = {3, 5};
  ec.iterations = 50;
  const auto ensemble = topics::LdaEnsemble::fit(docs, 12, ec);

  ExpertPolicyConfig pc;
  pc.target_clusters = 3;
  pc.min_cluster_sessions = 5;
  const ClusteringResult result = ExpertPolicy(pc).run(ensemble);

  ASSERT_EQ(result.session_cluster.size(), docs.size());
  std::size_t total = 0;
  for (const auto& c : result.clusters) total += c.size();
  EXPECT_EQ(total, docs.size());  // union of clusters = H (§III)
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const std::size_t c = result.session_cluster[d];
    ASSERT_LT(c, result.clusters.size());
    EXPECT_TRUE(std::find(result.clusters[c].begin(), result.clusters[c].end(), d) !=
                result.clusters[c].end());
  }
}

TEST(ExpertPolicy, RecoversPlantedGroups) {
  const auto docs = grouped_corpus(3, 40, 4, 2);
  topics::EnsembleConfig ec;
  ec.topic_counts = {3, 6};
  ec.iterations = 60;
  const auto ensemble = topics::LdaEnsemble::fit(docs, 12, ec);

  ExpertPolicyConfig pc;
  pc.target_clusters = 3;
  pc.min_cluster_sessions = 10;
  const ClusteringResult result = ExpertPolicy(pc).run(ensemble);

  // Cluster purity w.r.t. planted groups must be high.
  double weighted_purity = 0.0;
  for (const auto& members : result.clusters) {
    std::map<std::size_t, std::size_t> counts;
    for (std::size_t d : members) ++counts[d / 40];
    std::size_t peak = 0;
    for (const auto& [g, n] : counts) peak = std::max(peak, n);
    weighted_purity += static_cast<double>(peak);
  }
  weighted_purity /= static_cast<double>(docs.size());
  EXPECT_GT(weighted_purity, 0.9);
}

TEST(ExpertPolicy, MergesUndersizedClusters) {
  const auto docs = grouped_corpus(2, 50, 5, 3);
  topics::EnsembleConfig ec;
  ec.topic_counts = {8};
  ec.iterations = 40;
  const auto ensemble = topics::LdaEnsemble::fit(docs, 10, ec);

  ExpertPolicyConfig pc;
  pc.target_clusters = 8;
  pc.min_cluster_sessions = 20;  // forces merges
  const ClusteringResult result = ExpertPolicy(pc).run(ensemble);
  for (const auto& members : result.clusters) {
    EXPECT_GE(members.size(), 20u);
  }
  EXPECT_EQ(result.representative_topics.size(), result.clusters.size());
}

// --- ClusterAssigner ------------------------------------------------------

struct AssignerFixture {
  std::vector<std::vector<int>> cluster_a;  // actions 0-2
  std::vector<std::vector<int>> cluster_b;  // actions 5-7
  ClusterAssigner assigner;

  static AssignerFixture make() {
    Rng rng(5);
    std::vector<std::vector<int>> a, b;
    for (int i = 0; i < 60; ++i) {
      std::vector<int> sa, sb;
      const std::size_t len = 5 + rng.uniform_index(10);
      for (std::size_t j = 0; j < len; ++j) {
        sa.push_back(static_cast<int>(rng.uniform_index(3)));
        sb.push_back(static_cast<int>(5 + rng.uniform_index(3)));
      }
      a.push_back(std::move(sa));
      b.push_back(std::move(sb));
    }
    AssignerConfig config;
    config.features.vocab = 8;
    config.svm.nu = 0.1;
    std::vector<std::vector<std::span<const int>>> clusters(2);
    for (const auto& s : a) clusters[0].push_back(s);
    for (const auto& s : b) clusters[1].push_back(s);
    return AssignerFixture{std::move(a), std::move(b),
                           ClusterAssigner::train(clusters, config)};
  }
};

TEST(Assigner, RoutesSessionsToTheirCluster) {
  auto fixture = AssignerFixture::make();
  EXPECT_EQ(fixture.assigner.cluster_count(), 2u);
  const std::vector<int> like_a = {0, 1, 2, 0, 1};
  const std::vector<int> like_b = {5, 6, 7, 5, 6};
  EXPECT_EQ(fixture.assigner.assign(like_a), 0u);
  EXPECT_EQ(fixture.assigner.assign(like_b), 1u);
}

TEST(Assigner, ScoresOrderedCorrectly) {
  auto fixture = AssignerFixture::make();
  const std::vector<int> like_a = {1, 2, 0, 1};
  const auto scores = fixture.assigner.scores(like_a);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(Assigner, OnlineVotingFreezesEarlyCluster) {
  auto fixture = AssignerFixture::make();
  auto online = fixture.assigner.start_online();
  // 15 actions of cluster A, then a long tail of cluster B actions: the
  // vote must stay with A, while the per-step argmax flips to B.
  for (int i = 0; i < 15; ++i) online.push(i % 3);
  EXPECT_EQ(online.voted_cluster(), 0u);
  for (int i = 0; i < 40; ++i) online.push(5 + i % 3);
  EXPECT_EQ(online.voted_cluster(), 0u);       // frozen by the first-15 vote
  EXPECT_EQ(online.current_argmax(), 1u);      // per-step view has flipped
}

TEST(Assigner, OnlineResetClearsVotes) {
  auto fixture = AssignerFixture::make();
  auto online = fixture.assigner.start_online();
  for (int i = 0; i < 10; ++i) online.push(i % 3);
  online.reset();
  EXPECT_EQ(online.steps(), 0u);
  for (int i = 0; i < 10; ++i) online.push(5 + i % 3);
  EXPECT_EQ(online.voted_cluster(), 1u);
}

TEST(Assigner, SaveLoadRoundTripsScores) {
  auto fixture = AssignerFixture::make();
  std::stringstream buf;
  BinaryWriter w(buf);
  fixture.assigner.save(w);
  BinaryReader r(buf);
  const ClusterAssigner loaded = ClusterAssigner::load(r);
  const std::vector<int> probe = {0, 5, 1, 6, 2};
  const auto a = fixture.assigner.scores(probe);
  const auto b = loaded.scores(probe);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_EQ(loaded.config().vote_actions, fixture.assigner.config().vote_actions);
}

TEST(Assigner, OnlinePushMatchesOfflineScoresUnderEveryFeaturizerConfig) {
  // The online prefix and the offline session are featurized by the same
  // code and scored by the same kernel, so they agree bit for bit in
  // every setting, not only on the exact raw-count default.
  Rng rng(17);
  std::vector<std::vector<int>> sessions;
  std::vector<std::vector<std::span<const int>>> clusters(3);
  for (std::size_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 40; ++i) {
      std::vector<int> s(1 + rng.uniform_index(30));
      for (auto& a : s) a = static_cast<int>(c * 6 + rng.uniform_index(8));
      sessions.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) clusters[i / 40].push_back(sessions[i]);
  std::vector<std::vector<int>> probes;
  for (int i = 0; i < 12; ++i) {
    std::vector<int> s(1 + rng.uniform_index(120));
    for (auto& a : s) a = static_cast<int>(rng.uniform_index(20));
    probes.push_back(std::move(s));
  }
  for (const bool normalize : {false, true}) {
    for (const double length_weight : {0.0, 0.1}) {
      for (const auto kernel : {ocsvm::KernelKind::kRbf, ocsvm::KernelKind::kLinear}) {
        AssignerConfig config;
        config.features = {
            .vocab = 20, .normalize = normalize, .length_feature_weight = length_weight};
        config.svm.kernel = kernel;
        const auto assigner = ClusterAssigner::train(clusters, config);
        for (const auto& probe : probes) {
          auto online = assigner.start_online();
          for (std::size_t i = 0; i < probe.size(); ++i) {
            ASSERT_EQ(online.push(probe[i]),
                      assigner.scores(std::span<const int>(probe.data(), i + 1)))
                << "normalize=" << normalize << " length_weight=" << length_weight
                << " kernel=" << static_cast<int>(kernel) << " prefix " << i + 1;
          }
        }
      }
    }
  }
}

// --- Hand-written assigner sections -----------------------------------------

/// A trained OC-SVM of the given dim, as saved bytes.
std::string svm_bytes(std::size_t dim) {
  Rng rng(dim);
  std::vector<std::vector<float>> points(20, std::vector<float>(dim));
  for (auto& p : points) {
    for (auto& v : p) v = static_cast<float>(rng.uniform_index(3));
  }
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  ocsvm::OneClassSvm::train(points, {}).save(w);
  return out.str();
}

std::string assigner_bytes(std::uint64_t vocab, double length_weight,
                           const std::vector<std::size_t>& svm_dims) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  w.write_magic(0x4e475341u, 1);  // "ASGN"
  w.write<std::uint64_t>(15);     // vote_actions
  w.write<std::uint64_t>(vocab);
  w.write<std::uint8_t>(0);  // normalize
  w.write<double>(length_weight);
  w.write<std::uint64_t>(svm_dims.size());
  for (const std::size_t dim : svm_dims) w.write_raw(svm_bytes(dim));
  return out.str();
}

ClusterAssigner load_assigner(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader r(in);
  return ClusterAssigner::load(r);
}

TEST(AssignerLoad, AcceptsConsistentSection) {
  EXPECT_EQ(load_assigner(assigner_bytes(4, 0.0, {4, 4})).cluster_count(), 2u);
  // The length feature adds one dimension.
  const auto with_length = load_assigner(assigner_bytes(4, 0.1, {5}));
  EXPECT_EQ(with_length.cluster_count(), 1u);
  EXPECT_EQ(with_length.scores(std::vector<int>{0, 3}).size(), 1u);
}

TEST(AssignerLoad, RejectsZeroVocab) {
  EXPECT_THROW((void)load_assigner(assigner_bytes(0, 0.0, {4})), SerializeError);
}

TEST(AssignerLoad, RejectsNoSvms) {
  EXPECT_THROW((void)load_assigner(assigner_bytes(4, 0.0, {})), SerializeError);
}

TEST(AssignerLoad, RejectsSvmDimOtherThanFeaturizerDim) {
  EXPECT_THROW((void)load_assigner(assigner_bytes(4, 0.0, {5})), SerializeError);
  EXPECT_THROW((void)load_assigner(assigner_bytes(4, 0.0, {4, 3})), SerializeError);
  EXPECT_THROW((void)load_assigner(assigner_bytes(4, 0.1, {4})), SerializeError);
}

}  // namespace
}  // namespace misuse::cluster
