// Detector persistence round-trip as used by the serving path
// (misusedet_serve loads an archive saved after training): save -> load
// -> score equivalence, plus SerializeError coverage for truncated
// archives, wrong magic, and unsupported versions, and the load of
// legacy archives that carry quantized weight sections.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "nn/infer/dispatch.hpp"
#include "synth/portal.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/serialize.hpp"

namespace misuse::core {
namespace {

class PersistenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 200;
    pc.users = 40;
    pc.action_count = 50;
    pc.seed = 7;
    store_ = new SessionStore(synth::Portal(pc).generate());
    DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new MisuseDetector(MisuseDetector::train(*store_, dc));
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    detector_->save(writer);
    archive_ = new std::string(out.str());
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    delete archive_;
    detector_ = nullptr;
    store_ = nullptr;
    archive_ = nullptr;
  }

  static MisuseDetector load_from(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    BinaryReader reader(in);
    return MisuseDetector::load(reader);
  }

  static SessionStore* store_;
  static MisuseDetector* detector_;
  static std::string* archive_;
};

SessionStore* PersistenceFixture::store_ = nullptr;
MisuseDetector* PersistenceFixture::detector_ = nullptr;
std::string* PersistenceFixture::archive_ = nullptr;

TEST_F(PersistenceFixture, SaveLoadPredictEquivalence) {
  const MisuseDetector loaded = load_from(*archive_);
  ASSERT_EQ(loaded.cluster_count(), detector_->cluster_count());
  EXPECT_EQ(loaded.vocab().names(), detector_->vocab().names());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < store_->size() && checked < 10; ++i) {
    if (store_->at(i).length() < 2) continue;
    ++checked;
    const auto a = detector_->predict(store_->at(i).view());
    const auto b = loaded.predict(store_->at(i).view());
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.score.likelihoods, b.score.likelihoods);  // bit-exact
    EXPECT_EQ(a.score.losses, b.score.losses);
    EXPECT_EQ(a.score.accuracy, b.score.accuracy);
  }
  EXPECT_EQ(checked, 10u);
}

TEST_F(PersistenceFixture, SaveLoadOnlineMonitorEquivalence) {
  // The server-side regime: the loaded archive must drive OnlineMonitor
  // bit-identically to the in-memory detector.
  const MisuseDetector loaded = load_from(*archive_);
  const MonitorConfig config;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() < 4) continue;
    OnlineMonitor original(*detector_, config);
    OnlineMonitor reloaded(loaded, config);
    for (const int action : store_->at(i).view()) {
      const auto a = original.observe(action);
      const auto b = reloaded.observe(action);
      EXPECT_EQ(a.ocsvm_scores, b.ocsvm_scores);
      EXPECT_EQ(a.cluster_voted, b.cluster_voted);
      EXPECT_EQ(a.likelihood_voted, b.likelihood_voted);
      EXPECT_EQ(a.alarm, b.alarm);
    }
    break;  // one full session suffices; predict covers breadth
  }
}

TEST_F(PersistenceFixture, TruncatedArchiveThrows) {
  // Cutting the archive anywhere must throw SerializeError, never crash
  // or return a half-initialized detector.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(archive_->size()) * fraction);
    EXPECT_THROW((void)load_from(archive_->substr(0, cut)), SerializeError) << "cut=" << cut;
  }
  EXPECT_THROW((void)load_from(archive_->substr(0, archive_->size() - 1)), SerializeError);
}

TEST_F(PersistenceFixture, WrongMagicThrows) {
  std::string corrupt = *archive_;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 0x5a);
  EXPECT_THROW((void)load_from(corrupt), SerializeError);
}

TEST_F(PersistenceFixture, WrongVersionThrows) {
  // Bytes 4..8 hold the archive version (little-endian, after the magic).
  std::string corrupt = *archive_;
  const std::uint32_t bogus = 9999;
  std::memcpy(corrupt.data() + 4, &bogus, sizeof(bogus));
  EXPECT_THROW((void)load_from(corrupt), SerializeError);
}

TEST_F(PersistenceFixture, GarbageArchiveThrows) {
  EXPECT_THROW((void)load_from(std::string(256, '\x7f')), SerializeError);
}

TEST_F(PersistenceFixture, LoadErrorsNameTheFailingSection) {
  // "unexpected end of stream" alone is useless at 3am; the error must
  // say *which* archive section broke.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(archive_->size()) * fraction);
    try {
      (void)load_from(archive_->substr(0, cut));
      FAIL() << "truncated archive loaded at cut=" << cut;
    } catch (const SerializeError& e) {
      EXPECT_NE(std::string(e.what()).find("section "), std::string::npos)
          << "cut=" << cut << ": " << e.what();
    }
  }
}

TEST_F(PersistenceFixture, LoadFileErrorsCarryThePath) {
  const std::string path = ::testing::TempDir() + "misusedet_persistence_truncated.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << archive_->substr(0, archive_->size() / 2);
  }
  try {
    (void)MisuseDetector::load_file(path);
    FAIL() << "truncated archive file loaded";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("section "), std::string::npos) << what;
  }

  const std::string missing = ::testing::TempDir() + "misusedet_no_such_archive.bin";
  try {
    (void)MisuseDetector::load_file(missing);
    FAIL() << "missing archive file loaded";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_NE(what.find("cannot open file"), std::string::npos) << what;
  }
}

/// Saved bytes of one serializable object.
template <typename T>
std::string saved(const T& object) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  object.save(w);
  return out.str();
}

/// The fixture archive with its assigner section replaced by `assigner`
/// and the whole-file CRC footer recomputed, so the footer cannot be what
/// rejects it.
std::string with_assigner(const std::string& archive, const std::string& original,
                          const std::string& assigner) {
  const auto at = archive.find(original);
  EXPECT_NE(at, std::string::npos);
  std::string out = archive.substr(0, at) + assigner + archive.substr(at + original.size());
  const std::uint32_t crc = crc32(std::string_view(out).substr(0, out.size() - 4));
  std::memcpy(out.data() + out.size() - 4, &crc, sizeof(crc));
  return out;
}

void expect_assigner_rejected(const std::string& archive, const std::string& what) {
  std::istringstream in(archive, std::ios::binary);
  BinaryReader reader(in);
  try {
    (void)MisuseDetector::load(reader);
    ADD_FAILURE() << "inconsistent assigner section loaded";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("section assigner"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST_F(PersistenceFixture, AssignerSvmCountMustMatchTheClusterTable) {
  const auto& assigner = detector_->assigner();
  const std::string original = saved(assigner);
  // Control: the section spliced back unchanged loads.
  EXPECT_NO_THROW((void)load_from(with_assigner(*archive_, original, original)));

  // Drop the last OC-SVM and decrement the section's count (after magic,
  // version, vote_actions, vocab, normalize and length weight).
  const std::size_t k = assigner.cluster_count();
  ASSERT_GE(k, 2u);
  std::string fewer =
      original.substr(0, original.size() - saved(assigner.svm(k - 1)).size());
  const std::uint64_t count = k - 1;
  std::memcpy(fewer.data() + 33, &count, sizeof(count));
  expect_assigner_rejected(with_assigner(*archive_, original, fewer), "OC-SVM count");
}

TEST_F(PersistenceFixture, AssignerVocabMustMatchTheActionVocabulary) {
  // A self-consistent section (every OC-SVM has the featurizer's dim)
  // built for one action more than the archive's vocabulary holds.
  const auto& assigner = detector_->assigner();
  const std::uint64_t vocab = detector_->vocab().size() + 1;
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  w.write_magic(0x4e475341u, 1);  // "ASGN"
  w.write<std::uint64_t>(assigner.config().vote_actions);
  w.write<std::uint64_t>(vocab);
  w.write<std::uint8_t>(0);
  w.write<double>(0.0);
  w.write<std::uint64_t>(assigner.cluster_count());
  const std::vector<std::vector<float>> points(4, std::vector<float>(vocab, 1.0f));
  for (std::size_t c = 0; c < assigner.cluster_count(); ++c) {
    w.write_raw(saved(ocsvm::OneClassSvm::train(points, {})));
  }
  expect_assigner_rejected(with_assigner(*archive_, saved(assigner), out.str()), "feature vocab");
}

TEST_F(PersistenceFixture, HeaderCorruptionFailsTheFileCrc) {
  // A flip outside the per-cluster model sections (here: in the
  // vocabulary block right after magic+version) must be caught — by the
  // section parse if it lands on a length, else by the whole-file CRC
  // footer — never silently accepted.
  for (const std::size_t offset : {9u, 12u, 16u, 24u}) {
    std::string corrupt = *archive_;
    ASSERT_LT(offset, corrupt.size());
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    EXPECT_THROW((void)load_from(corrupt), SerializeError) << "offset=" << offset;
  }
}

TEST_F(PersistenceFixture, SingleByteCorruptionNeverCrashesAndNeverGoesUnnoticed) {
  // Sweep single-byte flips across the archive. Every flip must either
  // throw SerializeError or load a detector that still predicts; a flip
  // inside an LSTM section specifically must surface as a degraded
  // cluster, not silent model corruption.
  std::span<const int> probe;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() >= 4) {
      probe = store_->at(i).view();
      break;
    }
  }
  ASSERT_FALSE(probe.empty());
  std::size_t loaded_degraded = 0;
  std::size_t threw = 0;
  for (std::size_t step = 0; step < 24; ++step) {
    const std::size_t offset = archive_->size() / 24 * step + 7;
    if (offset >= archive_->size()) break;
    std::string corrupt = *archive_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    try {
      const MisuseDetector loaded = load_from(corrupt);
      // The flip landed inside a model section: the archive loads in
      // degraded form (or with a dead fallback) and must still score.
      if (loaded.degraded_cluster_count() > 0) ++loaded_degraded;
      (void)loaded.predict(probe);
    } catch (const SerializeError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u) << "flips outside model sections must fail the file CRC";
  // The archive is dominated by LSTM weights, so the sweep is expected to
  // hit at least one LSTM section.
  EXPECT_GT(loaded_degraded, 0u) << "no flip produced a degraded load";
}

TEST_F(PersistenceFixture, InjectedLstmCorruptionDegradesToMarkovFallback) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Force the first cluster's LSTM section to read as corrupt: the
  // detector must come up degraded and route that cluster's scoring
  // through the Markov fallback instead of aborting the load.
  failpoints::configure("detector.load.lstm=nth:1");
  const MisuseDetector degraded = load_from(*archive_);
  failpoints::clear();
  ASSERT_EQ(degraded.degraded_cluster_count(), 1u);
  EXPECT_TRUE(degraded.cluster_degraded(0));
  EXPECT_EQ(degraded.cluster_count(), detector_->cluster_count());

  const MonitorConfig config;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() < 4) continue;
    OnlineMonitor monitor(degraded, config);
    SessionAccumulator acc;
    bool saw_degraded_step = false;
    for (const int action : store_->at(i).view()) {
      const auto step = monitor.observe(action);
      // The per-step flag is exactly "the voted cluster runs on the
      // Markov fallback".
      EXPECT_EQ(step.degraded, degraded.cluster_degraded(step.cluster_voted));
      saw_degraded_step = saw_degraded_step || step.degraded;
      acc.add(step);
    }
    EXPECT_EQ(acc.report().degraded, saw_degraded_step);
    break;
  }
}

// --- archive v3: legacy quantized weight sections ----------------------
//
// detector_int8.bin is the golden detector.bin re-saved by a writer that
// still emitted int8 quantized weights: quant marker 1 and a CRC-checked
// section per cluster. Load checks those sections and discards them, so
// the archive must score exactly like detector.bin, and damage inside
// them must be tolerated the way damage to any other section is.

const std::string kGoldenDir = MISUSEDET_GOLDEN_DIR;

MisuseDetector load_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(in);
  return MisuseDetector::load(reader);
}

std::string read_golden(const std::string& name) {
  std::ifstream in(kGoldenDir + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// The first cluster's quantized payload begins with its "IMQT" magic;
/// its offset locates the section without hard-coding the layout of
/// everything before it. The section's u64 length and the marker byte
/// sit just before it.
std::size_t first_quant_payload(const std::string& archive) {
  const std::size_t at = archive.find("IMQT");
  EXPECT_NE(at, std::string::npos) << "no quantized section in archive";
  return at;
}

/// Every step of the golden trace, scored in-process with one monitor
/// per session; doubles print as hex floats, so equal lines mean equal
/// bits.
std::vector<std::string> score_golden_trace(const MisuseDetector& detector) {
  std::istringstream trace(read_golden("trace.ndjson"));
  const auto field = [](const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\":\"";
    const std::size_t from = line.find(tag) + tag.size();
    return line.substr(from, line.find('"', from) - from);
  };
  std::map<std::string, std::unique_ptr<OnlineMonitor>> sessions;
  std::vector<std::string> scored;
  std::string line;
  while (std::getline(trace, line)) {
    auto& monitor = sessions[field(line, "session_id")];
    if (monitor == nullptr) monitor = std::make_unique<OnlineMonitor>(detector, MonitorConfig{});
    const auto step = monitor->observe(std::stoi(field(line, "action")));
    std::ostringstream out;
    out << std::hexfloat << step.step << ' ' << step.cluster_argmax << ' ' << step.cluster_voted;
    out << ' ' << step.likelihood_voted.value_or(-1.0) << ' ' << step.alarm << step.trend_alarm;
    out << step.degraded;
    for (const double score : step.ocsvm_scores) out << ' ' << score;
    for (const auto& expected : step.expected) {
      out << ' ' << expected.action << ':' << expected.probability;
    }
    scored.push_back(out.str());
  }
  return scored;
}

void expect_scores_like_float_golden(const MisuseDetector& loaded) {
  EXPECT_EQ(loaded.degraded_cluster_count(), 0u);
  const auto want = score_golden_trace(load_bytes(read_golden("detector.bin")));
  const auto got = score_golden_trace(loaded);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(want.size(), 200u);
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "trace line " << i;
}

std::string load_error(const std::string& archive) {
  try {
    (void)load_bytes(archive);
  } catch (const SerializeError& e) {
    return e.what();
  }
  return "(loaded)";
}

TEST_F(PersistenceFixture, LegacyQuantizedArchiveScoresLikeFloat) {
  const std::string archive = read_golden("detector_int8.bin");
  (void)first_quant_payload(archive);
  expect_scores_like_float_golden(load_bytes(archive));
}

TEST_F(PersistenceFixture, CorruptQuantSectionFallsBackToFloatWithoutCrashing) {
  std::string archive = read_golden("detector_int8.bin");
  const std::size_t payload = first_quant_payload(archive);
  ASSERT_LT(payload + 20, archive.size());
  archive[payload + 20] ^= 0x40;  // bit-rot inside the quant payload
  expect_scores_like_float_golden(load_bytes(archive));  // must not throw
}

TEST_F(PersistenceFixture, UnknownQuantMarkerThrows) {
  std::string archive = read_golden("detector_int8.bin");
  const std::size_t marker = first_quant_payload(archive) - sizeof(std::uint64_t) - 1;
  ASSERT_EQ(archive[marker], 1) << "int8 marker expected before the first section";
  archive[marker] = 3;
  EXPECT_NE(load_error(archive).find("unknown quantization marker 3"), std::string::npos)
      << load_error(archive);
}

TEST_F(PersistenceFixture, TruncationInsideQuantSectionThrows) {
  std::string archive = read_golden("detector_int8.bin");
  archive.resize(first_quant_payload(archive) + 8);  // structural damage, not bit-rot
  EXPECT_NE(load_error(archive).find("cluster 0 quantized weights"), std::string::npos)
      << load_error(archive);
}

TEST_F(PersistenceFixture, HeaderCorruptionOfLegacyQuantizedArchiveFailsTheFileCrc) {
  // A flip inside a vocabulary name parses fine and leaves every section
  // intact, so only the whole-file footer can catch it.
  std::string archive = read_golden("detector_int8.bin");
  const std::string name = load_bytes(archive).vocab().name(0);
  const std::size_t at = archive.find(name);
  ASSERT_NE(at, std::string::npos);
  archive[at] ^= 0x20;
  EXPECT_NE(load_error(archive).find("CRC mismatch outside model sections"), std::string::npos)
      << load_error(archive);
}

TEST_F(PersistenceFixture, AllLstmSectionsCorruptStillServesFromMarkov) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  failpoints::configure("detector.load.lstm=always");
  const MisuseDetector degraded = load_from(*archive_);
  failpoints::clear();
  EXPECT_EQ(degraded.degraded_cluster_count(), degraded.cluster_count());
  std::span<const int> probe;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() >= 4) {
      probe = store_->at(i).view();
      break;
    }
  }
  ASSERT_FALSE(probe.empty());
  const auto verdict = degraded.predict(probe);
  EXPECT_LT(verdict.cluster, degraded.cluster_count());
  EXPECT_EQ(verdict.score.likelihoods.size(), probe.size() - 1);
}

}  // namespace
}  // namespace misuse::core
