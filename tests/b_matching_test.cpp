// Tests for the dynamic b-matching structure (core/b_matching.hpp) — the
// feasibility invariant of the paper's model.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/b_matching.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

TEST(BMatching, AddHasRemove) {
  BMatching m(5, 2);
  EXPECT_FALSE(m.has(0, 1));
  m.add(0, 1);
  EXPECT_TRUE(m.has(0, 1));
  EXPECT_TRUE(m.has(1, 0));  // unordered
  EXPECT_EQ(m.size(), 1u);
  m.remove(1, 0);
  EXPECT_FALSE(m.has(0, 1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(BMatching, DegreeTracking) {
  BMatching m(5, 3);
  m.add(0, 1);
  m.add(0, 2);
  m.add(0, 3);
  EXPECT_EQ(m.degree(0), 3u);
  EXPECT_EQ(m.degree(1), 1u);
  EXPECT_TRUE(m.full(0));
  EXPECT_FALSE(m.full(1));
  m.remove(0, 2);
  EXPECT_EQ(m.degree(0), 2u);
  EXPECT_FALSE(m.full(0));
}

TEST(BMatching, NeighborsReflectEdges) {
  BMatching m(6, 4);
  m.add(2, 3);
  m.add(2, 5);
  const auto& n2 = m.neighbors(2);
  EXPECT_EQ(n2.size(), 2u);
  EXPECT_TRUE(n2.contains(3));
  EXPECT_TRUE(n2.contains(5));
  EXPECT_TRUE(m.neighbors(3).contains(2));
}

TEST(BMatching, DegreeCapViolationAborts) {
  BMatching m(4, 1);
  m.add(0, 1);
  EXPECT_DEATH(m.add(0, 2), "degree cap");
}

TEST(BMatching, DuplicateAddAborts) {
  BMatching m(4, 2);
  m.add(0, 1);
  EXPECT_DEATH(m.add(1, 0), "already in matching");
}

TEST(BMatching, RemovingAbsentEdgeAborts) {
  BMatching m(4, 2);
  EXPECT_DEATH(m.remove(0, 1), "not in the matching");
}

TEST(BMatching, EdgeKeysEnumerate) {
  BMatching m(5, 2);
  m.add(0, 1);
  m.add(2, 4);
  auto keys = m.edge_keys();
  ASSERT_EQ(keys.size(), 2u);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys[0], pair_key(0, 1));
  EXPECT_EQ(keys[1], pair_key(2, 4));
}

TEST(BMatching, InvariantsHoldUnderRandomChurn) {
  Xoshiro256 rng(55);
  const std::size_t n = 12, b = 3;
  BMatching m(n, b);
  for (int step = 0; step < 20000; ++step) {
    const Rack u = static_cast<Rack>(rng.next_below(n));
    Rack v = static_cast<Rack>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (m.has(u, v)) {
      m.remove(u, v);
    } else if (!m.full(u) && !m.full(v)) {
      m.add(u, v);
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(m.check_invariants());
    }
  }
  EXPECT_TRUE(m.check_invariants());
}

TEST(BMatching, PerfectBMatchingFillsAllDegrees) {
  // Ring of 6 nodes with b=2: every node matched to both neighbors.
  BMatching m(6, 2);
  for (Rack i = 0; i < 6; ++i)
    m.add(i, static_cast<Rack>((i + 1) % 6));
  EXPECT_EQ(m.size(), 6u);
  for (Rack i = 0; i < 6; ++i) EXPECT_TRUE(m.full(i));
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
