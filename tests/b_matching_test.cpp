// Tests for the dynamic b-matching structure (core/b_matching.hpp) — the
// feasibility invariant of the paper's model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

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

TEST(PairSlot, TilesTheTriangleInOrder) {
  // Pairs ordered by (hi, lo) take consecutive slots from 0 (pair 0,1)
  // to pair_slots(n) − 1 (pair n−2,n−1): no gap, no overlap, no slot past
  // the end.
  for (const std::size_t n : {2u, 3u, 12u, 65u, 100u, 1000u}) {
    SCOPED_TRACE("racks=" + std::to_string(n));
    std::size_t expected = 0;
    for (Rack hi = 1; hi < n; ++hi)
      for (Rack lo = 0; lo < hi; ++lo)
        ASSERT_EQ(pair_slot(pair_key(hi, lo)), expected++)
            << "pair " << lo << "," << hi;
    EXPECT_EQ(expected, pair_slots(n));
  }
}

TEST(BMatching, ChurnMatchesSetReferenceAtEdgeSlots) {
  // Random add/remove churn checked against a std::set after every step.
  // Half the toggles hit the first and last bit of the row-major
  // membership index (bit u·n+v) and the bits on either side of each
  // 64-bit word boundary; every toggle adds or removes its pair in a
  // random orientation, so each pair is flipped through both of its bits.
  for (const std::size_t n : {2u, 3u, 12u, 64u, 65u, 100u}) {
    SCOPED_TRACE("racks=" + std::to_string(n));
    const std::size_t b = std::min<std::size_t>(n - 1, 4);
    BMatching m(n, b);
    std::set<std::uint64_t> reference;
    std::vector<std::size_t> edge_bits = {1, n * n - 2};
    for (std::size_t w = 64; w < n * n; w += 64) {
      // The diagonal (bit u·n+u) holds no pair.
      if ((w - 1) / n != (w - 1) % n) edge_bits.push_back(w - 1);
      if (w / n != w % n) edge_bits.push_back(w);
    }
    Xoshiro256 rng(n);
    for (int step = 0; step < 4000; ++step) {
      Rack u, v;
      if (rng.next_below(2) == 0) {
        const std::size_t bit = edge_bits[rng.next_below(edge_bits.size())];
        u = static_cast<Rack>(bit / n);
        v = static_cast<Rack>(bit % n);
      } else {
        u = static_cast<Rack>(rng.next_below(n));
        v = static_cast<Rack>(rng.next_below(n - 1));
        if (v >= u) ++v;
      }
      if (rng.next_below(2) == 0) std::swap(u, v);
      const std::uint64_t key = pair_key(u, v);
      if (reference.count(key) != 0) {
        m.remove(u, v);
        reference.erase(key);
      } else if (!m.full(u) && !m.full(v)) {
        m.add(u, v);
        reference.insert(key);
      }
      const bool want = reference.count(key) != 0;
      ASSERT_EQ(m.has(u, v), want) << "step " << step;
      ASSERT_EQ(m.has(v, u), want) << "step " << step;
      ASSERT_EQ(m.has_key(key), want) << "step " << step;
      ASSERT_EQ(m.size(), reference.size()) << "step " << step;
      if (step % 250 == 0) {
        for (Rack x = 0; x < n; ++x) {
          for (Rack y = 0; y < n; ++y) {
            if (x == y) continue;
            ASSERT_EQ(m.has(x, y), reference.count(pair_key(x, y)) != 0)
                << "pair " << x << "," << y;
          }
        }
        const std::vector<std::uint64_t> keys = m.edge_keys();
        ASSERT_EQ(std::set<std::uint64_t>(keys.begin(), keys.end()),
                  reference);
        ASSERT_EQ(keys.size(), reference.size());
        ASSERT_TRUE(m.check_invariants());
      }
    }
  }
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
