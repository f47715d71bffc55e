#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "data/generators.h"
#include "query/window_query.h"
#include "stream/counter_factory.h"
#include "util/byte_io.h"
#include "util/substream.h"

namespace longdp {
namespace core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

FixedWindowSynthesizer::Options Opt(int64_t horizon, int k, double rho,
                                    int64_t npad = -1, uint64_t seed = 0) {
  FixedWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.rho = rho;
  options.npad = npad;
  options.seed = seed;
  return options;
}

// ---------------------------------------------------------------------------
// Binary layout helpers. A Layout walks a checkpoint section by section (the
// format is documented in core/checkpoint.cc) and records where each field
// sits, so corruption tests can target a field by name.
// ---------------------------------------------------------------------------

struct Field {
  size_t offset = 0;  ///< the scalar, or an array's u64 count
  size_t data = 0;    ///< arrays: the first element
  size_t count = 0;   ///< arrays: the element count
  bool is_array = false;
};

uint64_t Peek64(const std::string& b, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

std::string Poke64(std::string b, size_t off, uint64_t v) {
  std::memcpy(b.data() + off, &v, sizeof(v));
  return b;
}

std::string PokeF64(std::string b, size_t off, double v) {
  std::memcpy(b.data() + off, &v, sizeof(v));
  return b;
}

class Layout {
 public:
  explicit Layout(const std::string& bytes)
      : bytes_(bytes), pos_(bytes.find('\n') + 1) {}

  void Scalar(const std::string& name) {
    Field f;
    f.offset = pos_;
    fields_[name] = f;
    pos_ += 8;
  }
  void Array(const std::string& name, size_t elem) {
    Field f;
    f.offset = pos_;
    f.count = Peek64(bytes_, pos_);
    f.data = pos_ + 8;
    f.is_array = true;
    fields_[name] = f;
    arrays_.push_back(name);
    pos_ = f.data + f.count * elem;
  }
  int64_t I64(const std::string& name) const {
    return static_cast<int64_t>(Peek64(bytes_, at(name).offset));
  }
  Field at(const std::string& name) const { return fields_.at(name); }
  /// Every array's count field, in file order.
  const std::vector<std::string>& arrays() const { return arrays_; }
  /// Where the end sentinel starts.
  size_t end() const { return pos_; }

 private:
  const std::string& bytes_;
  size_t pos_;
  std::map<std::string, Field> fields_;
  std::vector<std::string> arrays_;
};

Layout FixedWindowLayout(const std::string& bytes) {
  Layout l(bytes);
  for (const char* f : {"horizon", "k", "rho", "npad", "beta", "seed", "t",
                        "n", "releases", "clamps", "draws", "spent"}) {
    l.Scalar(f);
  }
  if (l.I64("n") >= 0) {
    for (int64_t j = 0; j < l.I64("k"); ++j) {
      l.Array("plane" + std::to_string(j), 8);
    }
  }
  l.Scalar("rounds");
  if (l.I64("rounds") > 0) {
    l.Array("history", 1);
    l.Array("order", 8);
  }
  return l;
}

Layout CumulativeLayout(const std::string& bytes) {
  Layout l(bytes);
  l.Scalar("horizon");
  l.Scalar("rho");
  l.Array("split", 1);
  l.Array("counter", 1);
  for (const char* f : {"seed", "t", "n"}) l.Scalar(f);
  if (l.I64("n") >= 0) {
    const int64_t horizon = l.I64("horizon");
    const int planes =
        static_cast<int>(std::bit_width(static_cast<uint64_t>(horizon)));
    for (int j = 0; j < planes; ++j) {
      l.Array("plane" + std::to_string(j), 8);
    }
    l.Array("released", 8);
    l.Array("history", 1);
    for (int64_t b = 0; b <= horizon; ++b) {
      l.Scalar("head" + std::to_string(b));
      l.Array("group" + std::to_string(b), 8);
    }
    l.Array("bank", 1);
  }
  return l;
}

Layout CategoricalLayout(const std::string& bytes) {
  Layout l(bytes);
  for (const char* f :
       {"horizon", "k", "alphabet", "rho", "npad", "beta", "seed", "t", "n",
        "initialized", "records", "releases", "clamps", "draws", "spent"}) {
    l.Scalar(f);
  }
  if (l.I64("n") >= 0) l.Array("windows", 8);
  if (l.I64("initialized") == 1) {
    l.Array("counts", 8);
    l.Array("history", 1);
    l.Array("sizes", 8);
    l.Array("members", 8);
  }
  return l;
}

// Checkpoints of small noisy runs after `rounds` observed rounds.
std::string FixedWindowCheckpoint(int64_t n, int64_t horizon, int k,
                                  int64_t rounds) {
  util::SubstreamRng rng(0xF1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, horizon, 0.4, &rng).value();
  auto synth =
      FixedWindowSynthesizer::Create(Opt(horizon, k, 0.5, -1, 0xF1)).value();
  for (int64_t t = 1; t <= rounds; ++t) {
    EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string bytes;
  EXPECT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  return bytes;
}

std::string CumulativeCheckpoint(int64_t n, int64_t horizon, int64_t rounds) {
  util::SubstreamRng rng(0xC1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(n, horizon, 0.4, &rng).value();
  CumulativeSynthesizer::Options options;
  options.horizon = horizon;
  options.rho = 0.5;
  options.seed = 0xC1;
  auto synth = CumulativeSynthesizer::Create(options).value();
  for (int64_t t = 1; t <= rounds; ++t) {
    EXPECT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string bytes;
  EXPECT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  return bytes;
}

std::string CategoricalCheckpoint(int64_t n, int64_t horizon, int k, int A,
                                  int64_t rounds) {
  util::SubstreamRng rng(0xCA, util::substream::kGeneric);
  CategoricalWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.alphabet = A;
  options.rho = 0.5;
  options.seed = 0xCA;
  auto synth = CategoricalWindowSynthesizer::Create(options).value();
  for (int64_t t = 1; t <= rounds; ++t) {
    std::vector<uint8_t> round(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(rng.UniformInt(static_cast<uint64_t>(A)));
    }
    EXPECT_TRUE(synth->ObserveRound(round).ok());
  }
  std::string bytes;
  EXPECT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  return bytes;
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  util::SubstreamRng rng(1, util::substream::kGeneric);
  auto ds = data::BernoulliIid(400, 12, 0.3, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 31)).value();
  for (int64_t t = 1; t <= 7; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 7);
  EXPECT_EQ(r.population(), 400);
  EXPECT_EQ(r.npad(), synth->npad());
  EXPECT_EQ(r.stats().releases, synth->stats().releases);
  EXPECT_NEAR(r.accountant().spent(), synth->accountant().spent(), 1e-12);
  EXPECT_EQ(r.SyntheticHistogram(), synth->SyntheticHistogram());
  // Cohort records identical bit for bit.
  ASSERT_EQ(r.cohort().num_records(), synth->cohort().num_records());
  for (int64_t rec = 0; rec < r.cohort().num_records(); ++rec) {
    for (int64_t t = 1; t <= r.cohort().rounds(); ++t) {
      ASSERT_EQ(r.cohort().Bit(rec, t), synth->cohort().Bit(rec, t));
    }
  }
}

TEST(CheckpointTest, RestoredRunContinuesCorrectly) {
  // Zero-noise path: a straight run and a checkpoint/restore run must end
  // with identical histograms (the consistency solve is deterministic at
  // the histogram level when sigma = 0).
  util::SubstreamRng rng(2, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();

  auto straight =
      FixedWindowSynthesizer::Create(Opt(10, 3, kInf, 20)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
  }

  auto first_half =
      FixedWindowSynthesizer::Create(Opt(10, 3, kInf, 20)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(first_half->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(first_half->SaveCheckpoint(&ckpt).ok());
  auto second_half = FixedWindowSynthesizer::LoadCheckpoint(ckpt).value();
  for (int64_t t = 6; t <= 10; ++t) {
    ASSERT_TRUE(second_half->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_EQ(second_half->SyntheticHistogram(),
            straight->SyntheticHistogram());
  EXPECT_EQ(second_half->t(), 10);
}

TEST(CheckpointTest, RestoredRunKeepsInvariantsUnderNoise) {
  util::SubstreamRng rng(3, util::substream::kGeneric);
  auto ds = data::BernoulliIid(1000, 12, 0.25, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(12, 3, 0.01, -1, 37)).value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(ckpt).value();
  std::vector<int64_t> prev = restored->SyntheticHistogram();
  int64_t population = restored->cohort().num_records();
  for (int64_t t = 7; t <= 12; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
    auto cur = restored->SyntheticHistogram();
    // Consistency constraint across the restore boundary and beyond.
    for (util::Pattern z = 0; z < 4; ++z) {
      EXPECT_EQ(cur[(z << 1)] + cur[(z << 1) | 1], prev[z] + prev[z | 4])
          << "t=" << t << " z=" << z;
    }
    int64_t total = 0;
    for (int64_t c : cur) total += c;
    EXPECT_EQ(total, population);
    prev = cur;
  }
  // Budget fully consumed by the end, not double-charged.
  EXPECT_NEAR(restored->accountant().spent(), 0.01, 1e-10);
}

TEST(CheckpointTest, PreReleaseCheckpointWorks) {
  // Checkpointing before t = k (no cohort yet) must round-trip.
  util::SubstreamRng rng(4, util::substream::kGeneric);
  auto ds = data::BernoulliIid(50, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 4, 0.1, -1, 41)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  ASSERT_TRUE(synth->ObserveRound(ds.Round(2)).ok());
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(ckpt).value();
  EXPECT_EQ(restored->t(), 2);
  EXPECT_FALSE(restored->has_release());
  for (int64_t t = 3; t <= 6; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_TRUE(restored->has_release());
}

TEST(CheckpointTest, FreshSynthesizerCheckpointWorks) {
  auto synth = FixedWindowSynthesizer::Create(Opt(5, 2, 0.1, -1, 43)).value();
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(ckpt).value();
  EXPECT_EQ(restored->t(), 0);
  EXPECT_EQ(restored->population(), -1);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(std::string()).ok());
  EXPECT_FALSE(
      FixedWindowSynthesizer::LoadCheckpoint("some other file\n1 2 3\n").ok());
  // A real checkpoint cut right after its option fields.
  const std::string bytes = FixedWindowCheckpoint(40, 6, 2, 4);
  const Layout layout = FixedWindowLayout(bytes);
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(
                   bytes.substr(0, layout.at("seed").offset + 8))
                   .ok());
  // v1 checkpoints predate substream cursors and v2 checkpoints predate
  // the persisted group order; both must be rejected by magic.
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(
                   "longdp-fixed-window-checkpoint-v1\n12 3 0.005 124 0.05\n")
                   .ok());
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(
                   "longdp-fixed-window-checkpoint-v2\n12 3 0.005 124 0.05 7\n")
                   .ok());
}

TEST(CheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  // An old-version checkpoint — including the v4 text format this build
  // replaced — must be refused with a message naming the version problem,
  // distinct from "this is not a checkpoint at all".
  for (const char* old :
       {"longdp-fixed-window-checkpoint-v3\n12 3 0.005 124 0.05 7\n",
        "longdp-fixed-window-checkpoint-v4\n12 3 0.005 124 0.05 7\n"}) {
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(old);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("version"), std::string::npos)
        << restored.status().message();
  }
}

TEST(CheckpointTest, MissingEndSentinelIsRejected) {
  // Checkpoints end in a format-specific sentinel; a checkpoint cut
  // exactly before it — where every section still decodes — must still
  // fail to load, as must a forged sentinel or bytes after it.
  const std::string text = FixedWindowCheckpoint(60, 6, 2, 4);
  const std::string sentinel = "end-longdp-fixed-window-checkpoint-v5";
  ASSERT_GE(text.size(), sentinel.size());
  const size_t pos = text.size() - sentinel.size();
  ASSERT_EQ(text.substr(pos), sentinel) << "checkpoint lacks its sentinel";
  EXPECT_FALSE(
      FixedWindowSynthesizer::LoadCheckpoint(text.substr(0, pos)).ok());
  std::string forged = text;
  forged.replace(pos, sentinel.size(), std::string(sentinel.size(), 'x'));
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(forged).ok());
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(text + "x").ok());
  EXPECT_TRUE(FixedWindowSynthesizer::LoadCheckpoint(text).ok());
}

TEST(CheckpointTest, CorruptSpentTokenIsRejectedNotZeroed) {
  // A spent budget that cannot be charged (the binary analogues of the old
  // unparsable "garbage" token: NaN, negative, infinite) must hard-fail,
  // never restore as spent = 0.
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(60, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 2, 0.1, -1, 47)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  ASSERT_GT(synth->accountant().spent(), 0.0);
  std::string bytes;
  ASSERT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  const size_t spent = FixedWindowLayout(bytes).at("spent").offset;
  for (double bad : {kNaN, -0.01, kInf}) {
    auto restored =
        FixedWindowSynthesizer::LoadCheckpoint(PokeF64(bytes, spent, bad));
    ASSERT_FALSE(restored.ok()) << "spent " << bad << " accepted";
  }
}

TEST(CheckpointTest, CorruptRhoTokenIsRejectedNotTruncated) {
  // rho goes through Create's validation: a NaN, zero or negative budget
  // must not restore (a 0 would silently reset the privacy budget).
  util::SubstreamRng rng(12, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 4, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(4, 2, 0.1, -1, 53)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  std::string bytes;
  ASSERT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  const Layout layout = FixedWindowLayout(bytes);
  for (double bad : {kNaN, 0.0, -0.02}) {
    auto restored = FixedWindowSynthesizer::LoadCheckpoint(
        PokeF64(bytes, layout.at("rho").offset, bad));
    ASSERT_FALSE(restored.ok()) << "rho " << bad << " accepted";
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
  }
  // beta is validated whenever it sizes the padding: an unresolved npad
  // with a NaN beta is rejected.
  std::string bad_beta = PokeF64(bytes, layout.at("beta").offset, kNaN);
  bad_beta = Poke64(bad_beta, layout.at("npad").offset, uint64_t(-1));
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(bad_beta).ok());
}

TEST(CheckpointTest, RejectsTamperedCohort) {
  util::SubstreamRng rng(5, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 6, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(6, 2, 0.1, -1, 59)).value();
  for (int64_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string bytes;
  ASSERT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  // Corrupt the last history bit into a non-binary byte.
  const Field& history = FixedWindowLayout(bytes).at("history");
  ASSERT_GT(history.count, 0u);
  bytes[history.data + history.count - 1] = 2;
  EXPECT_FALSE(FixedWindowSynthesizer::LoadCheckpoint(bytes).ok());
}

TEST(CheckpointTest, InfiniteRhoRoundTrips) {
  util::SubstreamRng rng(6, util::substream::kGeneric);
  auto ds = data::BernoulliIid(30, 4, 0.5, &rng).value();
  auto synth = FixedWindowSynthesizer::Create(Opt(4, 2, kInf, 0)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = FixedWindowSynthesizer::LoadCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->SyntheticHistogram(),
            synth->SyntheticHistogram());
}

TEST(CheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // The checkpoint stores only the substream CURSORS (keys re-derive from
  // (seed, purpose, stream, round)), so a mid-run save/load must continue
  // the run byte-identically to the uninterrupted one even WITH noise.
  util::SubstreamRng rng(0xC0DE, util::substream::kGeneric);
  auto ds = data::BernoulliIid(600, 12, 0.3, &rng).value();
  auto straight =
      FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 0xC0DE)).value();
  std::vector<std::vector<int64_t>> tail;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
    if (t >= 6) tail.push_back(straight->SyntheticHistogram());
  }

  auto half =
      FixedWindowSynthesizer::Create(Opt(12, 3, 0.02, -1, 0xC0DE)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(half->SaveCheckpoint(&ckpt).ok());
  auto resumed = FixedWindowSynthesizer::LoadCheckpoint(ckpt).value();
  size_t i = 0;
  for (int64_t t = 6; t <= 12; ++t, ++i) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
    EXPECT_EQ(resumed->SyntheticHistogram(), tail[i]) << "t=" << t;
  }
  EXPECT_EQ(resumed->stats().rounding_draws, straight->stats().rounding_draws);
}

// ---------------------------------------------------------------------------
// Cumulative synthesizer checkpointing (stream counter noise state included)
// ---------------------------------------------------------------------------

CumulativeSynthesizer::Options COpt(int64_t horizon, double rho,
                                    const std::string& counter = "tree",
                                    uint64_t seed = 0) {
  CumulativeSynthesizer::Options options;
  options.horizon = horizon;
  options.rho = rho;
  options.counter_factory = stream::MakeCounterFactory(counter).value();
  options.seed = seed;
  return options;
}

TEST(CumulativeCheckpointTest, RoundTripPreservesState) {
  util::SubstreamRng rng(11, util::substream::kGeneric);
  auto ds = data::BernoulliIid(500, 12, 0.3, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(12, 0.02, "tree", 61)).value();
  for (int64_t t = 1; t <= 7; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 7);
  EXPECT_EQ(r.population(), 500);
  EXPECT_EQ(r.released_thresholds(), synth->released_thresholds());
  EXPECT_EQ(r.SyntheticThresholdCounts(), synth->SyntheticThresholdCounts());
  for (int64_t rec = 0; rec < 500; ++rec) {
    for (int64_t t = 1; t <= 7; ++t) {
      ASSERT_EQ(r.Bit(rec, t), synth->Bit(rec, t));
    }
  }
  EXPECT_NEAR(r.accountant().spent(), 0.02, 1e-12);
}

TEST(CumulativeCheckpointTest, RestoredRunContinuesWithInvariants) {
  // Continue a restored run and require monotonization invariants across
  // the restore boundary — this exercises the serialized tree counter
  // internals (pending partial sums and their noisy values).
  util::SubstreamRng rng(13, util::substream::kGeneric);
  auto ds = data::BernoulliIid(800, 12, 0.25, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(12, 0.01, "tree", 67)).value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(ckpt).value();
  std::vector<int64_t> prev = restored->released_thresholds();
  for (int64_t t = 7; t <= 12; ++t) {
    ASSERT_TRUE(restored->ObserveRound(ds.Round(t)).ok());
    const auto& row = restored->released_thresholds();
    for (int64_t b = 1; b <= 12; ++b) {
      ASSERT_GE(row[b], prev[b]) << "t=" << t << " b=" << b;
      ASSERT_LE(row[b], prev[b - 1]) << "t=" << t << " b=" << b;
    }
    ASSERT_EQ(restored->SyntheticThresholdCounts(), row);
    prev = row;
  }
}

TEST(CumulativeCheckpointTest, ZeroNoiseRestoredRunMatchesStraightRun) {
  util::SubstreamRng rng(17, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.4, &rng).value();
  auto straight = CumulativeSynthesizer::Create(COpt(10, kInf)).value();
  for (int64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok());
  }
  auto half = CumulativeSynthesizer::Create(COpt(10, kInf)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(half->SaveCheckpoint(&ckpt).ok());
  auto resumed = CumulativeSynthesizer::LoadCheckpoint(ckpt).value();
  for (int64_t t = 6; t <= 10; ++t) {
    ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok());
  }
  EXPECT_EQ(resumed->released_thresholds(),
            straight->released_thresholds());
}

TEST(CumulativeCheckpointTest, AllCounterImplementationsRoundTrip) {
  util::SubstreamRng rng(19, util::substream::kGeneric);
  auto ds = data::BernoulliIid(200, 8, 0.3, &rng).value();
  for (const auto& name : stream::RegisteredCounterNames()) {
    auto synth = CumulativeSynthesizer::Create(COpt(8, 0.05, name, 71)).value();
    for (int64_t t = 1; t <= 4; ++t) {
      ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok()) << name;
    }
    std::string ckpt;
    ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok()) << name;
    auto restored = CumulativeSynthesizer::LoadCheckpoint(ckpt);
    ASSERT_TRUE(restored.ok()) << name << ": "
                               << restored.status().ToString();
    EXPECT_EQ(restored.value()->released_thresholds(),
              synth->released_thresholds())
        << name;
    for (int64_t t = 5; t <= 8; ++t) {
      ASSERT_TRUE(restored.value()->ObserveRound(ds.Round(t)).ok())
          << name;
      ASSERT_EQ(restored.value()->SyntheticThresholdCounts(),
                restored.value()->released_thresholds())
          << name;
    }
  }
}

TEST(CumulativeCheckpointTest, FreshSynthesizerRoundTrips) {
  auto synth = CumulativeSynthesizer::Create(COpt(5, 0.1, "tree", 73)).value();
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = CumulativeSynthesizer::LoadCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->t(), 0);
}

TEST(CumulativeCheckpointTest, CorruptRhoTokenIsRejectedNotTruncated) {
  util::SubstreamRng rng(13, util::substream::kGeneric);
  auto ds = data::BernoulliIid(40, 5, 0.5, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(5, 0.2, "tree", 79)).value();
  ASSERT_TRUE(synth->ObserveRound(ds.Round(1)).ok());
  std::string bytes;
  ASSERT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  const size_t rho = CumulativeLayout(bytes).at("rho").offset;
  for (double bad : {kNaN, 0.0, -0.2}) {
    auto restored =
        CumulativeSynthesizer::LoadCheckpoint(PokeF64(bytes, rho, bad));
    ASSERT_FALSE(restored.ok()) << "rho " << bad << " accepted";
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
  }
}

TEST(CumulativeCheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  for (const char* old :
       {"longdp-cumulative-checkpoint-v3\n12 0.02 0 tree\n",
        "longdp-cumulative-checkpoint-v4\n12 0.02 0 tree\n"}) {
    auto restored = CumulativeSynthesizer::LoadCheckpoint(old);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("version"), std::string::npos)
        << restored.status().message();
  }
}

TEST(CumulativeCheckpointTest, MissingEndSentinelIsRejected) {
  const std::string text = CumulativeCheckpoint(50, 6, 3);
  const std::string sentinel = "end-longdp-cumulative-checkpoint-v5";
  ASSERT_GE(text.size(), sentinel.size());
  const size_t pos = text.size() - sentinel.size();
  ASSERT_EQ(text.substr(pos), sentinel) << "checkpoint lacks its sentinel";
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(text.substr(0, pos)).ok());
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(text + "x").ok());
  EXPECT_TRUE(CumulativeSynthesizer::LoadCheckpoint(text).ok());
}

TEST(CumulativeCheckpointTest, RejectsGarbageAndTampering) {
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(std::string()).ok());
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(
                   "longdp-fixed-window-checkpoint-v1\n")
                   .ok());

  // Tampering with a history bit must be caught by the weight-group and
  // released-counts consistency checks.
  util::SubstreamRng rng(23, util::substream::kGeneric);
  auto ds = data::BernoulliIid(50, 6, 0.5, &rng).value();
  auto synth = CumulativeSynthesizer::Create(COpt(6, kInf)).value();
  for (int64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(synth->ObserveRound(ds.Round(t)).ok());
  }
  std::string bytes;
  ASSERT_TRUE(synth->SaveCheckpoint(&bytes).ok());
  const size_t first = CumulativeLayout(bytes).at("history").data;
  bytes[first] = static_cast<char>(bytes[first] ^ 1);
  EXPECT_FALSE(CumulativeSynthesizer::LoadCheckpoint(bytes).ok());
}

TEST(CumulativeCheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // Same property as the fixed-window test, per counter implementation:
  // every counter's noise substream cursors round-trip, so the resumed
  // release rows match the uninterrupted run exactly under real noise.
  util::SubstreamRng rng(0xC0DF, util::substream::kGeneric);
  auto ds = data::BernoulliIid(300, 10, 0.35, &rng).value();
  for (const auto& name : stream::RegisteredCounterNames()) {
    auto straight =
        CumulativeSynthesizer::Create(COpt(10, 0.02, name, 0xC0DF)).value();
    std::vector<std::vector<int64_t>> tail;
    for (int64_t t = 1; t <= 10; ++t) {
      ASSERT_TRUE(straight->ObserveRound(ds.Round(t)).ok()) << name;
      if (t >= 6) tail.push_back(straight->released_thresholds());
    }
    auto half =
        CumulativeSynthesizer::Create(COpt(10, 0.02, name, 0xC0DF)).value();
    for (int64_t t = 1; t <= 5; ++t) {
      ASSERT_TRUE(half->ObserveRound(ds.Round(t)).ok()) << name;
    }
    std::string ckpt;
    ASSERT_TRUE(half->SaveCheckpoint(&ckpt).ok()) << name;
    auto resumed = CumulativeSynthesizer::LoadCheckpoint(ckpt).value();
    size_t i = 0;
    for (int64_t t = 6; t <= 10; ++t, ++i) {
      ASSERT_TRUE(resumed->ObserveRound(ds.Round(t)).ok()) << name;
      EXPECT_EQ(resumed->released_thresholds(), tail[i])
          << name << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Categorical window synthesizer checkpointing (new in v1: resolved npad,
// per-user base-A windows, synthetic symbol histories, overlap group order)
// ---------------------------------------------------------------------------

CategoricalWindowSynthesizer::Options KOpt(int64_t horizon, int k, int A,
                                           double rho, uint64_t seed = 0) {
  CategoricalWindowSynthesizer::Options options;
  options.horizon = horizon;
  options.window_k = k;
  options.alphabet = A;
  options.rho = rho;
  options.seed = seed;
  return options;
}

// Deterministic symbol rounds over alphabet A.
std::vector<std::vector<uint8_t>> SymbolRounds(int64_t n, int64_t T, int A,
                                               uint64_t seed) {
  util::SubstreamRng rng(seed, util::substream::kGeneric);
  std::vector<std::vector<uint8_t>> rounds;
  for (int64_t t = 0; t < T; ++t) {
    std::vector<uint8_t> round(static_cast<size_t>(n));
    for (auto& s : round) {
      s = static_cast<uint8_t>(rng.UniformInt(static_cast<uint64_t>(A)));
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

TEST(CategoricalCheckpointTest, RoundTripPreservesState) {
  const auto rounds = SymbolRounds(300, 10, 3, 31);
  auto synth = CategoricalWindowSynthesizer::Create(KOpt(10, 2, 3, 0.05, 97))
                   .value();
  for (int64_t t = 1; t <= 6; ++t) {
    ASSERT_TRUE(synth->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& r = *restored.value();
  EXPECT_EQ(r.t(), 6);
  EXPECT_EQ(r.population(), 300);
  EXPECT_EQ(r.npad(), synth->npad());
  EXPECT_EQ(r.synthetic_population(), synth->synthetic_population());
  EXPECT_EQ(r.stats().releases, synth->stats().releases);
  EXPECT_NEAR(r.accountant().spent(), synth->accountant().spent(), 1e-12);
  EXPECT_EQ(r.SyntheticHistogram(), synth->SyntheticHistogram());
  for (int64_t rec = 0; rec < r.synthetic_population(); ++rec) {
    for (int64_t t = 1; t <= 6; ++t) {
      ASSERT_EQ(r.Symbol(rec, t), synth->Symbol(rec, t))
          << "rec=" << rec << " t=" << t;
    }
  }
}

TEST(CategoricalCheckpointTest, NoisyResumeReproducesRemainingReleaseLog) {
  // Keyed draws + checkpointed state: the resumed run's histograms equal
  // the uninterrupted run's bit for bit, under real noise.
  const auto rounds = SymbolRounds(400, 12, 3, 37);
  auto straight =
      CategoricalWindowSynthesizer::Create(KOpt(12, 2, 3, 0.05, 0xCA7)).value();
  std::vector<std::vector<int64_t>> tail;
  for (int64_t t = 1; t <= 12; ++t) {
    ASSERT_TRUE(
        straight->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    if (t >= 6) tail.push_back(straight->SyntheticHistogram());
  }
  auto half =
      CategoricalWindowSynthesizer::Create(KOpt(12, 2, 3, 0.05, 0xCA7)).value();
  for (int64_t t = 1; t <= 5; ++t) {
    ASSERT_TRUE(half->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  std::string ckpt;
  ASSERT_TRUE(half->SaveCheckpoint(&ckpt).ok());
  auto resumed = CategoricalWindowSynthesizer::LoadCheckpoint(ckpt).value();
  size_t i = 0;
  for (int64_t t = 6; t <= 12; ++t, ++i) {
    ASSERT_TRUE(
        resumed->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
    EXPECT_EQ(resumed->SyntheticHistogram(), tail[i]) << "t=" << t;
  }
  EXPECT_EQ(resumed->stats().remainder_draws,
            straight->stats().remainder_draws);
}

TEST(CategoricalCheckpointTest, PreReleaseAndFreshCheckpointsWork) {
  const auto rounds = SymbolRounds(50, 6, 4, 41);
  auto synth =
      CategoricalWindowSynthesizer::Create(KOpt(6, 3, 4, 0.1, 101)).value();
  // Fresh (t = 0).
  {
    std::string ckpt;
    ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
    auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(ckpt);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->t(), 0);
    EXPECT_EQ(restored.value()->population(), -1);
  }
  // Pre-release (t < k: windows tracked, no cohort yet).
  ASSERT_TRUE(synth->ObserveRound(rounds[0]).ok());
  ASSERT_TRUE(synth->ObserveRound(rounds[1]).ok());
  std::string ckpt;
  ASSERT_TRUE(synth->SaveCheckpoint(&ckpt).ok());
  auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(ckpt).value();
  EXPECT_EQ(restored->t(), 2);
  EXPECT_FALSE(restored->has_release());
  for (int64_t t = 3; t <= 6; ++t) {
    ASSERT_TRUE(
        restored->ObserveRound(rounds[static_cast<size_t>(t - 1)]).ok());
  }
  EXPECT_TRUE(restored->has_release());
}

TEST(CategoricalCheckpointTest, VersionSkewIsExplicitInvalidArgument) {
  for (const char* old : {"longdp-categorical-checkpoint-v0\n10 2 3 0.05\n",
                          "longdp-categorical-checkpoint-v1\n10 2 3 0.05\n"}) {
    auto restored = CategoricalWindowSynthesizer::LoadCheckpoint(old);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("version"), std::string::npos)
        << restored.status().message();
  }
}

TEST(CategoricalCheckpointTest, RejectsGarbageTamperingAndMissingSentinel) {
  EXPECT_FALSE(
      CategoricalWindowSynthesizer::LoadCheckpoint(std::string()).ok());
  EXPECT_FALSE(CategoricalWindowSynthesizer::LoadCheckpoint(
                   "longdp-cumulative-checkpoint-v5\n")
                   .ok());

  const std::string text = CategoricalCheckpoint(80, 6, 2, 3, 4);
  ASSERT_TRUE(CategoricalWindowSynthesizer::LoadCheckpoint(text).ok());

  // Cut at the sentinel: every earlier section decodes, the load fails.
  const std::string sentinel = "end-longdp-categorical-checkpoint-v2";
  ASSERT_GE(text.size(), sentinel.size());
  const size_t pos = text.size() - sentinel.size();
  ASSERT_EQ(text.substr(pos), sentinel);
  EXPECT_FALSE(
      CategoricalWindowSynthesizer::LoadCheckpoint(text.substr(0, pos)).ok());

  // A tampered histogram no longer matches the synthetic records.
  const Layout layout = CategoricalLayout(text);
  const size_t bin0 = layout.at("counts").data;
  EXPECT_FALSE(CategoricalWindowSynthesizer::LoadCheckpoint(
                   Poke64(text, bin0, Peek64(text, bin0) + 1))
                   .ok());

  // A spent budget that cannot be charged must hard-fail, not restore as 0.
  EXPECT_FALSE(CategoricalWindowSynthesizer::LoadCheckpoint(
                   PokeF64(text, layout.at("spent").offset, kNaN))
                   .ok());
}

// ---------------------------------------------------------------------------
// Decoder totality: every corruption of a binary checkpoint yields a non-OK
// Status — never a throw, an abort, or an allocation the input cannot back.
// Small runs (n = 100) keep the exhaustive loops cheap.
// ---------------------------------------------------------------------------

using Loader = std::function<Status(const std::string&)>;

constexpr uint64_t kHuge = uint64_t{1} << 62;

template <typename Synth>
Loader LoaderFor() {
  return [](const std::string& bytes) {
    return Synth::LoadCheckpoint(bytes).status();
  };
}

void ExpectRejected(const Loader& load, const std::string& bytes,
                    const std::string& what) {
  Status st;
  EXPECT_NO_THROW(st = load(bytes)) << what;
  EXPECT_FALSE(st.ok()) << what;
}

struct Case {
  std::string name;
  std::string bytes;
  Loader load;
  Layout (*layout)(const std::string&);
  /// Scalar fields that size the sections after them.
  std::vector<std::string> sizes;
};

std::vector<Case> TotalityCases() {
  return {
      {"fixed-window", FixedWindowCheckpoint(100, 8, 3, 6),
       LoaderFor<FixedWindowSynthesizer>(), &FixedWindowLayout,
       {"n", "rounds"}},
      {"fixed-window pre-release", FixedWindowCheckpoint(100, 8, 3, 2),
       LoaderFor<FixedWindowSynthesizer>(), &FixedWindowLayout,
       {"n", "rounds"}},
      {"cumulative", CumulativeCheckpoint(100, 8, 5),
       LoaderFor<CumulativeSynthesizer>(), &CumulativeLayout, {"n"}},
      {"categorical", CategoricalCheckpoint(100, 8, 2, 3, 5),
       LoaderFor<CategoricalWindowSynthesizer>(), &CategoricalLayout,
       {"n", "records"}},
      {"categorical pre-release", CategoricalCheckpoint(100, 8, 3, 3, 2),
       LoaderFor<CategoricalWindowSynthesizer>(), &CategoricalLayout,
       {"n", "records"}},
  };
}

TEST(CheckpointTotalityTest, IntactCheckpointsLoadAndLayoutsCoverThem) {
  for (const Case& c : TotalityCases()) {
    EXPECT_TRUE(c.load(c.bytes).ok()) << c.name;
    // The walker reaches exactly the sentinel: the layout is the format.
    const Layout layout = c.layout(c.bytes);
    EXPECT_EQ(c.bytes.substr(layout.end(), 4), "end-") << c.name;
    EXPECT_EQ(c.bytes.find('\n', layout.end()), std::string::npos) << c.name;
  }
}

TEST(CheckpointTotalityTest, TruncationAtEveryByteOffsetFails) {
  for (const Case& c : TotalityCases()) {
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      ExpectRejected(c.load, c.bytes.substr(0, len),
                     c.name + " cut at " + std::to_string(len));
    }
  }
}

TEST(CheckpointTotalityTest, EveryCountFieldInflatedTo2Pow62Fails) {
  for (const Case& c : TotalityCases()) {
    const Layout layout = c.layout(c.bytes);
    ASSERT_FALSE(layout.arrays().empty()) << c.name;
    std::vector<std::string> fields = layout.arrays();
    fields.insert(fields.end(), c.sizes.begin(), c.sizes.end());
    // 2^62, and the two extremes a signed or unsigned field can hold.
    for (const std::string& field : fields) {
      for (uint64_t huge :
           {kHuge, uint64_t{std::numeric_limits<int64_t>::max()},
            ~uint64_t{0}}) {
        ExpectRejected(c.load,
                       Poke64(c.bytes, layout.at(field).offset, huge),
                       c.name + " " + field + " = " + std::to_string(huge));
      }
    }
  }
}

TEST(CheckpointTotalityTest, NaNAndNegativeSpentFail) {
  for (const Case& c : TotalityCases()) {
    if (c.name.rfind("cumulative", 0) == 0) continue;  // the bank charges
    const size_t spent = c.layout(c.bytes).at("spent").offset;
    for (double bad : {kNaN, -kNaN, -1e-9, -kInf, kInf}) {
      ExpectRejected(c.load, PokeF64(c.bytes, spent, bad),
                     c.name + " spent " + std::to_string(bad));
    }
  }
}

TEST(CheckpointTotalityTest, OutOfRangeBytesAndTailBitsFail) {
  // A history byte of 2 (both binary synthesizers).
  for (const Case& c : TotalityCases()) {
    if (c.name != "fixed-window" && c.name != "cumulative") continue;
    const Field& history = c.layout(c.bytes).at("history");
    std::string bad = c.bytes;
    bad[history.data + history.count / 2] = 2;
    ExpectRejected(c.load, bad, c.name + " history byte 2");
  }
  // A symbol equal to the alphabet size.
  {
    const std::string bytes = CategoricalCheckpoint(100, 8, 2, 3, 5);
    const Field& history = CategoricalLayout(bytes).at("history");
    std::string bad = bytes;
    bad[history.data + history.count - 1] = 3;
    ExpectRejected(LoaderFor<CategoricalWindowSynthesizer>(), bad,
                   "categorical symbol A");
    // And a per-user window code past A^k.
    const Field& windows = CategoricalLayout(bytes).at("windows");
    ExpectRejected(LoaderFor<CategoricalWindowSynthesizer>(),
                   Poke64(bytes, windows.data, 9), "categorical window A^k");
  }
  // A set bit past n = 100 in the last word of a window or weight plane.
  for (const Case& c : TotalityCases()) {
    if (c.name.rfind("categorical", 0) == 0) continue;
    const Field& plane = c.layout(c.bytes).at("plane0");
    ASSERT_EQ(plane.count, 2u) << c.name;
    const size_t last = plane.data + 8;
    const uint64_t lane_104 = uint64_t{1} << 40;
    ExpectRejected(c.load,
                   Poke64(c.bytes, last, Peek64(c.bytes, last) | lane_104),
                   c.name + " tail bit past n");
  }
}

TEST(CheckpointTotalityTest, NonPermutationGroupOrdersFail) {
  {
    const std::string bytes = FixedWindowCheckpoint(100, 8, 3, 6);
    const Field& order = FixedWindowLayout(bytes).at("order");
    ASSERT_GE(order.count, 2u);
    // A duplicated record, and a record out of range.
    ExpectRejected(LoaderFor<FixedWindowSynthesizer>(),
                   Poke64(bytes, order.data + 8, Peek64(bytes, order.data)),
                   "fixed-window duplicate member");
    ExpectRejected(LoaderFor<FixedWindowSynthesizer>(),
                   Poke64(bytes, order.data, uint64_t(-1)),
                   "fixed-window negative member");
    // A permutation that puts records in the wrong overlap group.
    std::string swapped = bytes;
    const uint64_t first = Peek64(bytes, order.data);
    const uint64_t last = Peek64(bytes, order.data + 8 * (order.count - 1));
    swapped = Poke64(swapped, order.data, last);
    swapped = Poke64(swapped, order.data + 8 * (order.count - 1), first);
    ExpectRejected(LoaderFor<FixedWindowSynthesizer>(), swapped,
                   "fixed-window members in the wrong group");
  }
  {
    const std::string bytes = CumulativeCheckpoint(100, 8, 5);
    const Layout layout = CumulativeLayout(bytes);
    // Duplicate a live member of the first non-empty group.
    for (int64_t b = 0; b <= 8; ++b) {
      const Field& group = layout.at("group" + std::to_string(b));
      const uint64_t head =
          Peek64(bytes, layout.at("head" + std::to_string(b)).offset);
      if (group.count < head + 2) continue;
      const size_t live = group.data + 8 * head;
      ExpectRejected(LoaderFor<CumulativeSynthesizer>(),
                     Poke64(bytes, live + 8, Peek64(bytes, live)),
                     "cumulative duplicate member");
      break;
    }
  }
  {
    const std::string bytes = CategoricalCheckpoint(100, 8, 2, 3, 5);
    const Field& members = CategoricalLayout(bytes).at("members");
    ASSERT_GE(members.count, 2u);
    ExpectRejected(LoaderFor<CategoricalWindowSynthesizer>(),
                   Poke64(bytes, members.data + 8, Peek64(bytes, members.data)),
                   "categorical duplicate member");
  }
}

// Checkpoints of an empty population (n = 0) whose sections are all
// consistent, so only the options decide what the loader allocates.
std::string ForgedFixedWindow(int k) {
  std::string bytes = "longdp-fixed-window-checkpoint-v5\n";
  util::ByteWriter w(&bytes);
  w.I64(k);  // horizon = t = k: the cohort exists
  w.I64(k);
  w.F64(0.5);
  w.I64(0);  // npad
  w.F64(0.05);
  w.U64(7);
  w.I64(k);  // t
  w.I64(0);  // n
  for (int i = 0; i < 3; ++i) w.I64(0);  // releases, clamps, draws
  w.F64(0.0);                            // spent
  for (int j = 0; j < k; ++j) w.Array(std::vector<uint64_t>{});
  w.I64(k);  // cohort rounds
  w.Array(std::vector<uint8_t>{});
  w.Array(std::vector<int64_t>{});
  bytes += "end-longdp-fixed-window-checkpoint-v5";
  return bytes;
}

std::string ForgedCumulative(int64_t horizon, const std::string& counter) {
  std::string bytes = "longdp-cumulative-checkpoint-v5\n";
  util::ByteWriter w(&bytes);
  w.I64(horizon);
  w.F64(0.5);
  w.String("cubic-log");
  w.String(counter);
  w.U64(7);
  w.I64(1);  // t
  w.I64(0);  // n
  const uint64_t planes = std::bit_width(static_cast<uint64_t>(horizon));
  for (uint64_t j = 0; j < planes; ++j) w.Array(std::vector<uint64_t>{});
  w.Array(std::vector<int64_t>(static_cast<size_t>(horizon) + 1, 0));
  w.Array(std::vector<uint8_t>{});
  for (int64_t b = 0; b <= horizon; ++b) {
    w.U64(0);
    w.Array(std::vector<int64_t>{});
  }
  w.String("");  // the bank is created before its state is parsed
  bytes += "end-longdp-cumulative-checkpoint-v5";
  return bytes;
}

// Options that size an allocation by themselves (2^k histogram bins, a
// counter bank over the horizon) hit the same caps a live run has, before
// the loader allocates. Uncapped, these would ask for 256 MiB (k = 25) and
// ~300 MB (sqrt-matrix) of counters.
TEST(CheckpointTotalityTest, ForgedOptionsHitTheLiveRunCaps) {
  const Loader fixed = LoaderFor<FixedWindowSynthesizer>();
  ASSERT_TRUE(fixed(ForgedFixedWindow(3)).ok());  // the forgery is well formed
  Status st;
  EXPECT_NO_THROW(st = fixed(ForgedFixedWindow(25)));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("2^24"), std::string::npos) << st.message();

  const Loader cumulative = LoaderFor<CumulativeSynthesizer>();
  for (const auto& [horizon, counter] :
       {std::pair<int64_t, std::string>{4096, "sqrt-matrix"},
        std::pair<int64_t, std::string>{4097, "tree"}}) {
    EXPECT_NO_THROW(st = cumulative(ForgedCumulative(horizon, counter)));
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("longest counter bank"), std::string::npos)
        << counter << ": " << st.message();
  }
}

TEST(CheckpointTotalityTest, TextMagicOfThePreviousVersionGivesVersionSkew) {
  const std::pair<const char*, Loader> cases[] = {
      {"longdp-fixed-window-checkpoint-v4\n12 3 0.005 124 0.05 7\n",
       LoaderFor<FixedWindowSynthesizer>()},
      {"longdp-cumulative-checkpoint-v4\n12 0.02 cubic tree 7\n",
       LoaderFor<CumulativeSynthesizer>()},
      {"longdp-categorical-checkpoint-v1\n10 2 3 0.05 12 0.05 7\n",
       LoaderFor<CategoricalWindowSynthesizer>()},
  };
  for (const auto& [text, load] : cases) {
    Status st = load(text);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("unsupported"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("version"), std::string::npos) << st.message();
  }
}

}  // namespace
}  // namespace core
}  // namespace longdp
