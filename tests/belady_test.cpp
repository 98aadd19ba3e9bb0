// Cross-validation of the offline paging optima (paging/belady.hpp,
// tests/offline_opt.hpp) and optimality sanity against online engines.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "paging/belady.hpp"
#include "paging/factory.hpp"
#include "offline_opt.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::paging;

std::vector<Key> random_sequence(std::size_t len, std::size_t universe,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Key> seq(len);
  for (auto& k : seq) k = 1 + rng.next_below(universe);
  return seq;
}

class BeladyVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BeladyVsBruteForce, IdenticalOptimalFaultCounts) {
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  const std::size_t universe = 3 + rng.next_below(5);   // 3..7 keys
  const std::size_t capacity = 1 + rng.next_below(3);   // 1..3 slots
  const std::vector<Key> seq =
      random_sequence(60, universe, static_cast<std::uint64_t>(seed) + 1000);
  EXPECT_EQ(Belady::optimal_faults(capacity, seq),
            brute_force_faults(capacity, seq))
      << "universe=" << universe << " capacity=" << capacity;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BeladyVsBruteForce,
                         ::testing::Range(0, 25));

class BeladyDominatesOnline
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(BeladyDominatesOnline, NoEngineBeatsBelady) {
  const auto [kind, seed] = GetParam();
  const std::size_t capacity = 4;
  const std::vector<Key> seq =
      random_sequence(500, 10, static_cast<std::uint64_t>(seed));
  auto engine = make_engine(kind, capacity, Xoshiro256(99));
  std::vector<Key> evicted;
  for (Key k : seq) {
    evicted.clear();
    engine->request(k, evicted);
  }
  EXPECT_GE(engine->faults(), Belady::optimal_faults(capacity, seq));
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesSeeds, BeladyDominatesOnline,
    ::testing::Combine(::testing::Values(EngineKind::kMarking,
                                         EngineKind::kLru, EngineKind::kFifo,
                                         EngineKind::kClock,
                                         EngineKind::kRandom,
                                         EngineKind::kFlushWhenFull),
                       ::testing::Values(1, 2, 3)));

TEST(OfflineOpt, BypassingNeverCostsMoreThanNonBypassing) {
  for (int seed = 0; seed < 10; ++seed) {
    const std::vector<Key> seq =
        random_sequence(50, 6, static_cast<std::uint64_t>(seed));
    EXPECT_LE(optimal_faults_bypassing(2, seq), brute_force_faults(2, seq));
  }
}

TEST(OfflineOpt, BypassingWithinFactorTwoOfNonBypassing) {
  // Epstein et al.: the variants are asymptotically equivalent; for unit
  // costs non-bypassing OPT <= 2 * bypassing OPT.
  for (int seed = 0; seed < 10; ++seed) {
    const std::vector<Key> seq =
        random_sequence(50, 6, 100 + static_cast<std::uint64_t>(seed));
    EXPECT_LE(brute_force_faults(2, seq),
              2 * optimal_faults_bypassing(2, seq));
  }
}

TEST(OfflineOpt, SequenceFittingInCacheFaultsOncePerKey) {
  const std::vector<Key> seq = {5, 6, 7, 5, 6, 7, 7, 6, 5};
  EXPECT_EQ(Belady::optimal_faults(3, seq), 3u);
  EXPECT_EQ(brute_force_faults(3, seq), 3u);
}

TEST(OfflineOpt, AlternatingTwoKeysCapacityOne) {
  // 1 2 1 2 ... with capacity 1: every request faults for any algorithm.
  std::vector<Key> seq;
  for (int i = 0; i < 20; ++i) seq.push_back(1 + (i % 2));
  EXPECT_EQ(Belady::optimal_faults(1, seq), 20u);
}

TEST(Belady, LargerCacheNeverFaultsMore) {
  const std::vector<Key> seq = random_sequence(400, 12, 6);
  std::uint64_t prev = ~0ull;
  for (std::size_t cap = 1; cap <= 12; ++cap) {
    const std::uint64_t f = Belady::optimal_faults(cap, seq);
    EXPECT_LE(f, prev);
    prev = f;
  }
}

}  // namespace
