// Tests for the topology builders (net/topology.hpp), including the exact
// hop-count structure the paper's cost model relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/topology.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::net;

TEST(FatTree, K4HasCanonicalSizes) {
  const Topology t = make_fat_tree_k(4);
  // k=4: 4 pods * (2 edge + 2 agg) + 4 core = 20 switches, 8 racks.
  EXPECT_EQ(t.graph.num_vertices(), 20u);
  EXPECT_EQ(t.num_racks(), 8u);
  // Edges: per pod 2*2 edge-agg + 2*2 agg-core = 8; 4 pods -> 32.
  EXPECT_EQ(t.graph.num_edges(), 32u);
}

TEST(FatTree, IntraPodDistanceIsTwoInterPodIsFour) {
  const Topology t = make_fat_tree_k(4);
  // Racks are in pod-major order, 2 per pod for k=4.
  EXPECT_EQ(t.distances(0, 1), 2);  // same pod, via aggregation
  EXPECT_EQ(t.distances(0, 2), 4);  // different pods, via core
  EXPECT_EQ(t.distances(0, 7), 4);
  EXPECT_EQ(t.distances.max_distance(), 4);
}

TEST(FatTree, RequestedRackCountIsHonored) {
  const Topology t = make_fat_tree(100);
  EXPECT_EQ(t.num_racks(), 100u);
  // k=16 would give 128 racks; paper's 100-rack instance truncates.
  for (std::uint32_t i = 0; i < 100; ++i)
    for (std::uint32_t j = i + 1; j < 100; ++j) {
      EXPECT_GE(t.distances(i, j), 2);
      EXPECT_LE(t.distances(i, j), 4);
    }
}

TEST(FatTree, TrimmedTreeKeepsTheFullTreesDistances) {
  // make_fat_tree(n) builds the smallest k-ary tree with n racks and keeps
  // its first n racks: n = 2, 7, 100, 129 trim the k = 2, 4, 16, 18 trees.
  for (const std::uint32_t n : {2u, 7u, 100u, 129u}) {
    std::size_t k = 2;
    while (k * k / 2 < n) k += 2;
    const Topology t = make_fat_tree(n);
    const Topology full = make_fat_tree_k(k);
    ASSERT_EQ(t.num_racks(), n);
    EXPECT_EQ(t.name, "fat_tree_n" + std::to_string(n));
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = 0; j < n; ++j)
        ASSERT_EQ(t.distances(i, j), full.distances(i, j))
            << "n=" << n << " i=" << i << " j=" << j;
  }
}

TEST(FatTree, FiftyRackInstanceForMicrosoftExperiments) {
  const Topology t = make_fat_tree(50);
  EXPECT_EQ(t.num_racks(), 50u);
  EXPECT_EQ(t.distances.max_distance(), 4);
}

TEST(Star, AllRacksTwoApart) {
  const Topology t = make_star(10);
  EXPECT_EQ(t.graph.num_vertices(), 11u);
  for (std::uint32_t i = 0; i < 10; ++i)
    for (std::uint32_t j = 0; j < 10; ++j)
      EXPECT_EQ(t.distances(i, j), i == j ? 0 : 2);
}

TEST(LeafSpine, AllDistinctRacksTwoApart) {
  const Topology t = make_leaf_spine(12, 3);
  for (std::uint32_t i = 0; i < 12; ++i)
    for (std::uint32_t j = 0; j < 12; ++j)
      EXPECT_EQ(t.distances(i, j), i == j ? 0 : 2);
}

TEST(Line, DistancesAreIndexDifferences) {
  const Topology t = make_line(8);
  for (std::uint32_t i = 0; i < 8; ++i)
    for (std::uint32_t j = 0; j < 8; ++j)
      EXPECT_EQ(t.distances(i, j), (i > j ? i - j : j - i));
}

TEST(Ring, DistancesAreCyclic) {
  const Topology t = make_ring(10);
  EXPECT_EQ(t.distances(0, 1), 1);
  EXPECT_EQ(t.distances(0, 5), 5);
  EXPECT_EQ(t.distances(0, 9), 1);
  EXPECT_EQ(t.distances(2, 8), 4);
}

TEST(Torus, ManhattanWrapDistances) {
  const Topology t = make_torus(4, 5);
  EXPECT_EQ(t.num_racks(), 20u);
  // (0,0) to (2,0): min(2, 4-2) = 2 rows.
  EXPECT_EQ(t.distances(0, 2 * 5), 2);
  // (0,0) to (0,3): min(3, 5-3) = 2 cols.
  EXPECT_EQ(t.distances(0, 3), 2);
  // (0,0) to (2,3): 2 + 2.
  EXPECT_EQ(t.distances(0, 2 * 5 + 3), 4);
}

TEST(Hypercube, HammingDistances) {
  const Topology t = make_hypercube(4);
  EXPECT_EQ(t.num_racks(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i)
    for (std::uint32_t j = 0; j < 16; ++j)
      EXPECT_EQ(t.distances(i, j), std::popcount(i ^ j));
}

TEST(RandomRegular, DegreesAndConnectivity) {
  const auto check = [](std::size_t racks, std::size_t degree,
                        std::uint64_t seed) {
    SCOPED_TRACE(std::to_string(racks) + " racks, degree " +
                 std::to_string(degree) + ", seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    const Topology t = make_random_regular(racks, degree, rng);
    EXPECT_EQ(t.num_racks(), racks);
    EXPECT_TRUE(t.graph.connected());
    for (std::uint32_t v = 0; v < racks; ++v) {
      std::vector<NodeId> neighbors(t.graph.neighbors(v).begin(),
                                    t.graph.neighbors(v).end());
      std::sort(neighbors.begin(), neighbors.end());
      ASSERT_EQ(neighbors.size(), degree) << "rack " << v;
      EXPECT_EQ(std::count(neighbors.begin(), neighbors.end(), v), 0)
          << "self-loop at rack " << v;
      EXPECT_EQ(std::adjacent_find(neighbors.begin(), neighbors.end()),
                neighbors.end())
          << "repeated edge at rack " << v;
    }
  };
  check(24, 3, 3);
  for (const std::size_t racks : {100u, 1000u})
    for (const std::size_t degree : {3u, 4u, 5u, 8u, 16u, 32u})
      check(racks, degree, 3);
  // Pairing shuffled stubs, with a restart on any self-loop or repeated
  // edge, used up its 200 attempts at these two seeds.
  for (const std::uint64_t seed : {282u, 345u}) check(100, 4, seed);
}

TEST(Complete, AllPairsAdjacent) {
  const Topology t = make_complete(6);
  for (std::uint32_t i = 0; i < 6; ++i)
    for (std::uint32_t j = 0; j < 6; ++j)
      EXPECT_EQ(t.distances(i, j), i == j ? 0 : 1);
}

// Property sweep: every topology must yield a symmetric distance matrix
// satisfying the triangle inequality (BFS distances are metrics).
class TopologyMetricTest : public ::testing::TestWithParam<int> {};

Topology build_by_index(int idx) {
  Xoshiro256 rng(9);
  switch (idx) {
    case 0: return make_fat_tree(20);
    case 1: return make_star(15);
    case 2: return make_leaf_spine(16, 4);
    case 3: return make_line(12);
    case 4: return make_ring(13);
    case 5: return make_torus(4, 4);
    case 6: return make_hypercube(4);
    case 7: return make_random_regular(18, 3, rng);
    default: return make_complete(10);
  }
}

TEST_P(TopologyMetricTest, DistancesFormAMetric) {
  const Topology t = build_by_index(GetParam());
  const auto n = static_cast<std::uint32_t>(t.num_racks());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(t.distances(i, i), 0);
    for (std::uint32_t j = 0; j < n; ++j) {
      EXPECT_EQ(t.distances(i, j), t.distances(j, i));
      if (i != j) {
        EXPECT_GE(t.distances(i, j), 1);
      }
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t k = 0; k < n; ++k)
        EXPECT_LE(t.distances(i, j),
                  t.distances(i, k) + t.distances(k, j));
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyMetricTest,
                         ::testing::Range(0, 9));

}  // namespace
