// Tests for the greedy max-weight b-matching that every offline window
// builds (core/offline_dynamic.hpp), against the exact solver of the test
// oracles (exact_b_matching.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/rng.hpp"
#include "core/offline_dynamic.hpp"
#include "exact_b_matching.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;
using rdcn::testing::is_feasible_b_matching;

std::vector<WeightedEdge> random_edges(std::size_t num_racks,
                                       std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  // Cannot sample more distinct pairs than exist.
  count = std::min(count, num_racks * (num_racks - 1) / 2);
  std::vector<WeightedEdge> edges;
  std::unordered_set<std::uint64_t> seen;
  while (edges.size() < count) {
    const Rack u = static_cast<Rack>(rng.next_below(num_racks));
    Rack v = static_cast<Rack>(rng.next_below(num_racks - 1));
    if (v >= u) ++v;
    const std::uint64_t key = pair_key(u, v);
    if (!seen.insert(key).second) continue;
    edges.push_back({key, 1 + rng.next_below(100)});
  }
  return edges;
}

TEST(GreedyBMatching, PicksHeaviestCompatibleEdges) {
  // Triangle 0-1-2 with b=1: only one edge fits; greedy takes the heaviest.
  std::vector<WeightedEdge> edges = {
      {pair_key(0, 1), 10}, {pair_key(1, 2), 30}, {pair_key(0, 2), 20}};
  const auto m = greedy_b_matching(3, 1, edges);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], pair_key(1, 2));
}

TEST(GreedyBMatching, RespectsDegreeCap) {
  for (std::size_t cap : {1ul, 2ul, 3ul}) {
    const auto edges = random_edges(12, 40, 7);
    const auto m = greedy_b_matching(12, cap, edges);
    EXPECT_TRUE(is_feasible_b_matching(12, cap, m));
  }
}

TEST(GreedyBMatching, SkipsZeroWeightEdges) {
  std::vector<WeightedEdge> edges = {{pair_key(0, 1), 0},
                                     {pair_key(2, 3), 5}};
  const auto m = greedy_b_matching(4, 1, edges);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], pair_key(2, 3));
}

TEST(GreedyBMatching, DeterministicTieBreaking) {
  std::vector<WeightedEdge> edges = {{pair_key(0, 1), 7},
                                     {pair_key(2, 3), 7},
                                     {pair_key(4, 5), 7}};
  const auto a = greedy_b_matching(6, 1, edges);
  const auto b = greedy_b_matching(6, 1, edges);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
}

class GreedyApproximation : public ::testing::TestWithParam<int> {};

TEST_P(GreedyApproximation, AtLeastHalfOfExactOptimum) {
  const int seed = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 6 + rng.next_below(3);
  const std::size_t cap = 1 + rng.next_below(2);
  const auto edges =
      random_edges(n, 10 + rng.next_below(8),
                   static_cast<std::uint64_t>(seed) * 31 + 5);
  const auto greedy = greedy_b_matching(n, cap, edges);
  const auto exact = exact_b_matching(n, cap, edges);
  const std::uint64_t wg = matching_weight(greedy, edges);
  const std::uint64_t we = matching_weight(exact, edges);
  EXPECT_GE(2 * wg, we) << "greedy below 1/2-approximation";
  EXPECT_LE(wg, we) << "greedy beats the exact optimum?!";
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyApproximation,
                         ::testing::Range(0, 20));

TEST(GreedyBMatching, NoSingleSwapImproves) {
  // Why no swap local search follows the greedy matching: greedy skips an
  // edge only when an endpoint is at the cap, and every matched edge there
  // was taken earlier, so it weighs at least as much.  Adding a skipped
  // edge therefore evicts at least its own weight.
  const std::size_t n = 14;
  for (std::size_t cap : {1ul, 2ul, 3ul}) {
    for (int seed = 0; seed < 15; ++seed) {
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " seed=" + std::to_string(seed));
      const auto edges =
          random_edges(n, 60, 1000 + static_cast<std::uint64_t>(seed));
      const auto greedy = greedy_b_matching(n, cap, edges);
      ASSERT_TRUE(is_feasible_b_matching(n, cap, greedy));
      const std::unordered_set<std::uint64_t> matched(greedy.begin(),
                                                      greedy.end());
      std::vector<std::vector<std::uint64_t>> matched_weights(n);
      for (const WeightedEdge& e : edges) {
        if (!matched.contains(e.key)) continue;
        matched_weights[pair_lo(e.key)].push_back(e.weight);
        matched_weights[pair_hi(e.key)].push_back(e.weight);
      }
      for (const WeightedEdge& e : edges) {
        if (e.weight == 0 || matched.contains(e.key)) continue;
        const auto blocks = [&](Rack r) {
          const std::vector<std::uint64_t>& w = matched_weights[r];
          return w.size() == cap &&
                 std::all_of(w.begin(), w.end(),
                             [&](std::uint64_t x) { return x >= e.weight; });
        };
        EXPECT_TRUE(blocks(pair_lo(e.key)) || blocks(pair_hi(e.key)))
            << "edge {" << pair_lo(e.key) << "," << pair_hi(e.key)
            << "} weight " << e.weight << " has an improving single swap";
      }
    }
  }
}

TEST(ExactBMatching, FindsWhatGreedyMisses) {
  // Path 0-1-2-3 with b=1.  Weights: (1,2)=10, (0,1)=9, (2,3)=9.
  // Greedy takes (1,2) alone (weight 10); optimum is (0,1)+(2,3)=18.
  std::vector<WeightedEdge> edges = {
      {pair_key(1, 2), 10}, {pair_key(0, 1), 9}, {pair_key(2, 3), 9}};
  const auto greedy = greedy_b_matching(4, 1, edges);
  EXPECT_EQ(matching_weight(greedy, edges), 10u);
  // No single swap closes the gap (adding (0,1) evicts (1,2): gain -1);
  // only both new edges together do.  The exact solver finds them.
  const auto exact = exact_b_matching(4, 1, edges);
  EXPECT_EQ(matching_weight(exact, edges), 18u);
}

TEST(ExactBMatching, MatchesBruteForceExpectations) {
  // Square 0-1-2-3-0 with b=1: opposite edges can pair up.
  std::vector<WeightedEdge> edges = {{pair_key(0, 1), 5},
                                     {pair_key(1, 2), 6},
                                     {pair_key(2, 3), 5},
                                     {pair_key(0, 3), 6}};
  const auto exact = exact_b_matching(4, 1, edges);
  EXPECT_EQ(matching_weight(exact, edges), 12u);  // (1,2) + (0,3)
}

TEST(MatchingWeight, IgnoresUnknownKeys) {
  std::vector<WeightedEdge> edges = {{pair_key(0, 1), 5}};
  EXPECT_EQ(matching_weight({pair_key(0, 1), pair_key(2, 3)}, edges), 5u);
}

}  // namespace
