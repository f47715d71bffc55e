#include "stream/state_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "stream/counter_bank.h"
#include "stream/counter_factory.h"
#include "util/substream.h"

namespace longdp {
namespace stream {
namespace state_io {
namespace {

TEST(StateIoTest, DoubleRoundTripIsBitExact) {
  for (double v : {0.0, 1.0, -3.5, 0.1, 1e-300, 1e300, 4.9406564584124654e-324,
                   3.141592653589793, -2.718281828459045}) {
    std::stringstream s;
    WriteDouble(s, v);
    auto r = ReadDouble(s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), v) << v;
  }
}

TEST(StateIoTest, InfinityRoundTrips) {
  std::stringstream s;
  WriteDouble(s, std::numeric_limits<double>::infinity());
  auto r = ReadDouble(s);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isinf(r.value()));
}

TEST(StateIoTest, TruncatedDoubleFails) {
  std::stringstream s("");
  EXPECT_FALSE(ReadDouble(s).ok());
}

TEST(StateIoTest, IntVectorRoundTrip) {
  std::vector<int64_t> v = {0, -5, 123456789012345, 7};
  std::stringstream s;
  WriteIntVector(s, v);
  std::vector<int64_t> out;
  ASSERT_TRUE(ReadIntVector(s, &out).ok());
  EXPECT_EQ(out, v);
}

TEST(StateIoTest, EmptyVectorsRoundTrip) {
  std::stringstream s;
  WriteIntVector(s, {});
  std::vector<int64_t> out = {1, 2, 3};
  ASSERT_TRUE(ReadIntVector(s, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(StateIoTest, DoubleVectorRoundTrip) {
  std::vector<double> v = {0.5, -1e-9, 42.0};
  std::stringstream s;
  WriteDoubleVector(s, v);
  std::vector<double> out;
  ASSERT_TRUE(ReadDoubleVector(s, &out).ok());
  EXPECT_EQ(out, v);
}

TEST(StateIoTest, RejectsImplausibleSizes) {
  std::stringstream s("-1");
  std::vector<int64_t> out;
  EXPECT_FALSE(ReadIntVector(s, &out).ok());
  std::stringstream huge("999999999999999");
  EXPECT_FALSE(ReadIntVector(huge, &out).ok());
}

TEST(StateIoTest, RejectsTruncatedVectors) {
  std::stringstream s("3 1 2");  // promises 3 elements, provides 2
  std::vector<int64_t> out;
  EXPECT_FALSE(ReadIntVector(s, &out).ok());
}

TEST(StateIoTest, ForgedCountFailsBeforeAllocating) {
  // Regression: a count of 2^32 passed the size check and the vector was
  // resized before a single element was read, so these 16 bytes threw
  // std::bad_alloc (or zero-filled 32 GiB). The vector must only grow as
  // elements actually parse.
  const std::string forged = "4294967296 1 2 3";
  std::stringstream ints(forged);
  std::vector<int64_t> iv;
  Status st = ReadIntVector(ints, &iv);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  std::stringstream doubles(forged);
  std::vector<double> dv;
  st = ReadDoubleVector(doubles, &dv);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  std::stringstream cursors(forged);
  std::vector<uint64_t> cv;
  st = ReadCursorVector(cursors, &cv);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_LE(iv.capacity(), 4096u);
}

TEST(StateIoTest, MalformedDoubleIsRejectedNotZero) {
  // Regression: ReadDouble used strtod with a null endptr, so a corrupted
  // checkpoint token silently restored as 0.0 — a wrong-but-plausible state
  // instead of a hard error.
  for (const char* tok : {"garbage", "1.5zzz", "--2", ".", "1e", "NaNx"}) {
    std::stringstream s(tok);
    auto r = ReadDouble(s);
    ASSERT_FALSE(r.ok()) << tok;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << tok;
  }
}

TEST(StateIoTest, CorruptedDoubleVectorFailsRestore) {
  std::stringstream s("2 1.5 garbage");
  std::vector<double> out;
  Status st = ReadDoubleVector(s, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(StateIoTest, IntWithTrailingGarbageIsRejectedWholeToken) {
  // Regression: ReadInt used `in >> value`, which stops at the first
  // non-digit — "12abc" restored as 12 with "abc" left to corrupt the NEXT
  // field. The whole token must parse or the whole token must fail.
  for (const char* tok : {"12abc", "1.5", "0x10", "7 8garbage", "++3", ""}) {
    std::stringstream s(tok);
    auto first = ReadInt(s);
    if (first.ok()) {
      // Multi-token cases: the FOLLOWING read must fail, never misparse.
      auto second = ReadInt(s);
      EXPECT_FALSE(second.ok()) << tok;
      EXPECT_TRUE(second.status().IsInvalidArgument() ||
                  second.status().IsNotFound())
          << tok << ": " << second.status().ToString();
    } else {
      EXPECT_FALSE(first.ok()) << tok;
    }
  }
  // Valid tokens, including negatives, still parse.
  std::stringstream ok("-42 9000000000000000000");
  EXPECT_EQ(ReadInt(ok).value(), -42);
  std::stringstream range("99999999999999999999");  // > int64 max: ERANGE
  EXPECT_FALSE(ReadInt(range).ok());
}

TEST(StateIoTest, NegativeCursorIsRejectedNotWrapped) {
  // Regression: ReadCursor used `in >> uint64`, which accepts "-1" and
  // wraps it to 18446744073709551615 — a silently absurd draw cursor. A
  // cursor token must be pure digits.
  for (const char* tok : {"-1", "+3", "12abc", "abc", "", " -9"}) {
    std::stringstream s(tok);
    auto r = ReadCursor(s);
    EXPECT_FALSE(r.ok()) << tok;
  }
  std::stringstream ok("18446744073709551615");  // uint64 max is fine
  EXPECT_EQ(ReadCursor(ok).value(), 18446744073709551615ull);
  std::stringstream range("18446744073709551616");  // one past: ERANGE
  EXPECT_FALSE(ReadCursor(range).ok());
}

TEST(StateIoTest, ExpectTokenMatchesExactlyOnce) {
  std::stringstream s("end-sentinel extra");
  EXPECT_TRUE(ExpectToken(s, "end-sentinel", "test blob").ok());
  // Wrong token: named in the error, stream state is an error.
  std::stringstream wrong("not-it");
  Status st = ExpectToken(wrong, "end-sentinel", "test blob");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("end-sentinel"), std::string::npos);
  // Missing entirely (truncation): also a hard error.
  std::stringstream empty("");
  EXPECT_FALSE(ExpectToken(empty, "end-sentinel", "test blob").ok());
}

TEST(StateIoTest, ExpectExhaustedRejectsTrailingTokens) {
  std::stringstream clean("  \n\t ");
  EXPECT_TRUE(ExpectExhausted(clean, "test blob").ok());
  std::stringstream dirty(" stray");
  Status st = ExpectExhausted(dirty, "test blob");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("stray"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Mid-stream state round-trips for every registered counter type. A counter
// serialized at time t and restored into a freshly constructed counter (same
// keyed substream — the keys re-derive from construction parameters, only
// the draw cursors travel in the state) must finish the stream with releases
// identical to the uninterrupted original. This pins the substream cursors
// each implementation persists, so scratch-buffer and batching refactors
// that forget to carry a field fail here immediately.

class CounterRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CounterRoundTripTest, MidStreamStateRoundTripsStandalone) {
  const std::string name = GetParam();
  auto factory = MakeCounterFactory(name).value();
  const int64_t T = 16;
  const double rho = 2.0;

  const util::SubstreamRng noise(0x5107 + static_cast<uint64_t>(name.size()),
                                 util::substream::kCounterNoise);
  auto original = factory->Create(T, rho, noise).value();
  util::SubstreamRng data_rng(0xDA7A, util::substream::kGeneric);
  std::vector<int64_t> stream(static_cast<size_t>(T));
  for (auto& z : stream) {
    z = static_cast<int64_t>(data_rng.UniformInt(5));
  }

  const int64_t split = T / 2;
  for (int64_t t = 0; t < split; ++t) {
    ASSERT_TRUE(original->Observe(stream[static_cast<size_t>(t)]).ok());
  }

  std::stringstream state;
  ASSERT_TRUE(original->SaveState(state).ok()) << name;
  auto restored = factory->Create(T, rho, noise).value();
  ASSERT_TRUE(restored->RestoreState(state).ok()) << name;
  EXPECT_EQ(restored->steps(), split) << name;

  // The restored counter resumes its keyed substreams at the saved
  // cursors; every remaining release must match exactly.
  for (int64_t t = split; t < T; ++t) {
    auto a = original->Observe(stream[static_cast<size_t>(t)]);
    auto b = restored->Observe(stream[static_cast<size_t>(t)]);
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_EQ(a.value(), b.value())
        << name << ": release diverged at t=" << t + 1;
  }
}

TEST_P(CounterRoundTripTest, MidStreamStateRoundTripsThroughBank) {
  const std::string name = GetParam();
  const int64_t T = 12;
  const int64_t n = 60;

  CounterBank::Options opt;
  opt.horizon = T;
  opt.population = n;
  opt.total_rho = 4.0;
  opt.seed = 0xBA2C + static_cast<uint64_t>(name.size());
  opt.factory = MakeCounterFactory(name).value();

  auto original = CounterBank::Create(opt).value();
  util::SubstreamRng data_rng(0xFEED, util::substream::kGeneric);

  // A feasible increment schedule: z[b-1] nonzero only for b <= t, with
  // small counts so every weight path stays plausible.
  auto make_round = [&](int64_t t) {
    std::vector<int64_t> z(static_cast<size_t>(T), 0);
    for (int64_t b = 1; b <= t; ++b) {
      z[static_cast<size_t>(b - 1)] =
          static_cast<int64_t>(data_rng.UniformInt(4));
    }
    return z;
  };
  std::vector<std::vector<int64_t>> zs;
  for (int64_t t = 1; t <= T; ++t) zs.push_back(make_round(t));

  const int64_t split = T / 2;
  for (int64_t t = 0; t < split; ++t) {
    ASSERT_TRUE(original->ObserveRound(zs[static_cast<size_t>(t)]).ok())
        << name;
  }

  std::stringstream state;
  ASSERT_TRUE(original->SaveState(state).ok()) << name;
  auto restored = CounterBank::Create(opt).value();
  ASSERT_TRUE(restored->RestoreState(state).ok()) << name;
  EXPECT_EQ(restored->steps(), split) << name;

  for (int64_t t = split; t < T; ++t) {
    auto a = original->ObserveRound(zs[static_cast<size_t>(t)]);
    auto b = restored->ObserveRound(zs[static_cast<size_t>(t)]);
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_EQ(a.value(), b.value())
        << name << ": bank release diverged at t=" << t + 1;
    EXPECT_EQ(original->raw_row(), restored->raw_row())
        << name << ": raw row diverged at t=" << t + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCounters, CounterRoundTripTest,
                         ::testing::ValuesIn(RegisteredCounterNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace state_io
}  // namespace stream
}  // namespace longdp
