// Unit tests for the deterministic RNG substrate (common/rng.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace {

using namespace rdcn;

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, KnownFirstValueOfSeedZero) {
  // Reference value from the published SplitMix64 test vector.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, GoldenStreamAnchor) {
  // Pinned first outputs for seed 2023.  Any change to the seeding
  // construction or the xoshiro step silently re-randomizes every
  // experiment in the repo; this anchor makes such a change loud.
  Xoshiro256 g(2023);
  const std::uint64_t expected[] = {
      0x8e9b348ee3a76e7dULL, 0x9e5a3b305068383eULL, 0x682b72a6bd84eb87ULL,
      0x93adfcf06599e718ULL, 0x649cf86f14003764ULL, 0x6760764eb6cac30dULL,
  };
  for (std::uint64_t e : expected) EXPECT_EQ(g.next(), e);
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(6);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 5000; ++i) ++seen[rng.next_below(10)];
  for (int count : seen) EXPECT_GT(count, 300);  // ~500 expected each
}

TEST(Xoshiro256, NextInInclusiveRange) {
  Xoshiro256 rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(8);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256, SplitStreamsAreIndependentish) {
  Xoshiro256 parent(42);
  Xoshiro256 c1 = parent.split(1);
  Xoshiro256 c2 = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c1.next() == c2.next());
  EXPECT_LE(equal, 1);
}

TEST(Geometric, MeanMatchesTheory) {
  Xoshiro256 rng(11);
  const double p = 0.2;  // mean failures = (1-p)/p = 4
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(sample_geometric(rng, p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.15);
}

TEST(Geometric, PEqualOneAlwaysZero) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_geometric(rng, 1.0), 0u);
}

TEST(Exponential, MeanMatchesTheory) {
  Xoshiro256 rng(13);
  const double lambda = 0.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += sample_exponential(rng, lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.08);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, ActuallyShuffles) {
  Xoshiro256 rng(15);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v.begin(), v.end(), rng);
  int fixed_points = 0;
  for (int i = 0; i < 100; ++i) fixed_points += (v[i] == i);
  EXPECT_LT(fixed_points, 10);  // expected ~1
}

TEST(ZipfSampler, PmfIsNormalizedAndMonotone) {
  const ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    total += zipf.pmf(i);
    if (i > 0) {
      EXPECT_LE(zipf.pmf(i), zipf.pmf(i - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(zipf.pmf(i), 0.1, 1e-9);
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  Xoshiro256 rng(16);
  const ZipfSampler zipf(20, 1.2);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t i = 0; i < 20; ++i) {
    const double expected = zipf.pmf(i) * n;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected) + 10.0);
  }
}

TEST(AliasSampler, MatchesWeights) {
  Xoshiro256 rng(17);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  const AliasSampler sampler(w);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler(rng)];
  for (std::size_t i = 0; i < 4; ++i) {
    const double expected = w[i] / 10.0 * n;
    EXPECT_NEAR(counts[i], expected, 0.05 * expected);
  }
}

TEST(AliasSampler, HandlesZeroWeights) {
  Xoshiro256 rng(18);
  const AliasSampler sampler({0.0, 5.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler(rng), 1u);
}

TEST(AliasSampler, SingleElement) {
  Xoshiro256 rng(19);
  const AliasSampler sampler({3.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler(rng), 0u);
}

TEST(AliasSampler, ExtremeSkew) {
  Xoshiro256 rng(20);
  std::vector<double> w(100, 1e-6);
  w[37] = 1.0;
  const AliasSampler sampler(w);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += (sampler(rng) == 37);
  EXPECT_GT(hits, 9900);
}

}  // namespace
