#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace eotora::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo = saw_lo || x == 0;
    saw_hi = saw_hi || x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng;
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.index(5)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng;
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(3);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParamsRejectsNegativeStddev) {
  Rng rng;
  EXPECT_THROW((void)rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliProbabilityRoughlyCorrect) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliRejectsBadProbability) {
  Rng rng;
  EXPECT_THROW((void)rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW((void)rng.bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(fa.uniform(0.0, 1.0), fb.uniform(0.0, 1.0));
  }
  // The fork differs from the parent stream.
  Rng c(99);
  Rng fc = c.fork();
  bool different = false;
  for (int i = 0; i < 20; ++i) {
    if (fc.uniform(0.0, 1.0) != c.uniform(0.0, 1.0)) different = true;
  }
  EXPECT_TRUE(different);
}

TEST(Rng, PickReturnsElementFromVector) {
  Rng rng(1);
  const std::vector<int> items = {10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(items);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(2);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.exponential(2.0), 0.0);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

// Literal draws for seed 42, pinned on any standard library: the stream is
// part of the golden contract (docs/TESTING.md), so a change to Mt19937_64 or
// to any of Rng's conversions fails here before it moves a fixture.
TEST(Rng, PinnedDrawsForSeed42) {
  Rng rng(42);
  EXPECT_EQ(rng.engine()(), 0xC151DF7D6EE5E2D6ull);
  EXPECT_EQ(rng.engine()(), 0xA3978FB9B92502A8ull);
  EXPECT_EQ(rng.engine()(), 0xC08C967F0E5E7B0Aull);
  EXPECT_EQ(rng.uniform(0.0, 1.0), 0x1.171621fc50d6ap-3);
  EXPECT_EQ(rng.uniform(-3.0, 5.0), 0x1.0e79451c9a6c3p+2);
  EXPECT_EQ(rng.normal(), 0x1.4421e89b91959p-3);
  EXPECT_EQ(rng.normal(10.0, 2.0), 0x1.cb39919427f4p+2);
  EXPECT_TRUE(rng.bernoulli(0.5));
  EXPECT_EQ(rng.exponential(2.0), 0x1.984ab27b98ddap-8);
  EXPECT_EQ(rng.index(10), 5u);
  Rng child = rng.fork();
  EXPECT_TRUE(child.engine() == Rng(0x7ED8BA578DFA7CDBull).engine());
  EXPECT_EQ(Rng().engine()(), 0xFC1CAB57D3E7BFF9ull);
}

TEST(Rng, SkipNormalsConsumesWhatNormalDoes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng drawn(seed);
    Rng skipped(seed);
    for (std::size_t count = 0; count < 300; ++count) {
      for (std::size_t i = 0; i < count; ++i) (void)drawn.normal(3.0, 2.0);
      skipped.skip_normals(count);
      ASSERT_TRUE(drawn.engine() == skipped.engine()) << seed << " " << count;
    }
  }
}

TEST(Rng, EngineEqualityTracksPosition) {
  Rng a(5);
  Rng b(5);
  EXPECT_TRUE(a.engine() == b.engine());
  (void)a.engine()();
  EXPECT_FALSE(a.engine() == b.engine());
  (void)b.engine()();
  EXPECT_TRUE(a.engine() == b.engine());
}

#ifdef __GLIBCXX__
// Rng re-implements libstdc++'s MT19937-64 and <random> distributions for
// speed; every call must return the bits the std:: types return on
// std::mt19937_64. Calls are interleaved at random so a divergence in how
// many engine outputs one call consumes shows up in every later call.
TEST(Rng, StreamMatchesStandardLibrary) {
  constexpr int kCalls = 100000;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    std::mt19937_64 ref(seed * 0x9E3779B97F4A7C15ull);
    std::mt19937_64 chooser(seed);
    std::uniform_real_distribution<double> param(0.0, 1.0);
    for (int call = 0; call < kCalls; ++call) {
      const auto op = chooser() % 7;
      const double a = param(chooser);
      const double b = param(chooser);
      switch (op) {
        case 0: {
          const double lo = -100.0 * a;
          const double hi = lo + 1000.0 * b;
          ASSERT_EQ(bits(rng.uniform(lo, hi)),
                    bits(std::uniform_real_distribution<double>(lo, hi)(ref)))
              << "seed " << seed << " call " << call;
          break;
        }
        case 1:
          ASSERT_EQ(bits(rng.normal()),
                    bits(std::normal_distribution<double>(0.0, 1.0)(ref)))
              << "seed " << seed << " call " << call;
          break;
        case 2: {
          const double mean = 50.0 * (a - 0.5);
          const double stddev = 5.0 * b;
          ASSERT_EQ(bits(rng.normal(mean, stddev)),
                    bits(std::normal_distribution<double>(mean, stddev)(ref)))
              << "seed " << seed << " call " << call;
          break;
        }
        case 3:
          ASSERT_EQ(rng.bernoulli(a), std::bernoulli_distribution(a)(ref))
              << "seed " << seed << " call " << call;
          break;
        case 4: {
          const double rate = 0.01 + 10.0 * a;
          ASSERT_EQ(bits(rng.exponential(rate)),
                    bits(std::exponential_distribution<double>(rate)(ref)))
              << "seed " << seed << " call " << call;
          break;
        }
        case 5: {
          const auto size = 1 + static_cast<std::size_t>(b * 1e6);
          ASSERT_EQ(rng.index(size),
                    static_cast<std::size_t>(
                        std::uniform_int_distribution<std::int64_t>(
                            0, static_cast<std::int64_t>(size) - 1)(ref)))
              << "seed " << seed << " call " << call;
          break;
        }
        default: {
          Rng child = rng.fork();
          std::mt19937_64 ref_child(ref() ^ 0xD1B54A32D192ED03ull);
          ASSERT_EQ(child.engine()(), ref_child()) << "seed " << seed << " call " << call;
          break;
        }
      }
    }
    // Final engine states: the next kStateSize raw outputs pin the whole
    // state (tempering is invertible), and the two extra rounds cross a
    // twist boundary.
    for (std::size_t i = 0; i < 3 * Mt19937_64::kStateSize; ++i) {
      ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " tail " << i;
    }
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace eotora::util
