// Unit + fuzz tests for the open-addressing containers (common/flat_hash.hpp).
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"

namespace {

using namespace rdcn;

TEST(FlatMap, BasicInsertFind) {
  FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  m[10] = 5;
  m[20] = 7;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(10), nullptr);
  EXPECT_EQ(*m.find(10), 5);
  ASSERT_NE(m.find(20), nullptr);
  EXPECT_EQ(*m.find(20), 7);
  EXPECT_EQ(m.find(30), nullptr);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<std::uint64_t> m;
  EXPECT_EQ(m[42], 0u);
  ++m[42];
  ++m[42];
  EXPECT_EQ(m[42], 2u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseRemovesAndReturnsPresence) {
  FlatMap<int> m;
  m[1] = 1;
  m[2] = 2;
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatMap, GrowsBeyondInitialCapacity) {
  FlatMap<int> m;
  for (std::uint64_t k = 1; k <= 10000; ++k) m[k] = static_cast<int>(k);
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t k = 1; k <= 10000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), static_cast<int>(k));
  }
}

TEST(FlatMap, ClearEmptiesButKeepsWorking) {
  FlatMap<int> m;
  for (std::uint64_t k = 1; k <= 100; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(50), nullptr);
  m[7] = 9;
  EXPECT_EQ(*m.find(7), 9);
}

TEST(FlatMap, ForEachVisitsEverything) {
  FlatMap<int> m;
  for (std::uint64_t k = 1; k <= 200; ++k) m[k] = static_cast<int>(2 * k);
  std::uint64_t key_sum = 0;
  std::int64_t value_sum = 0;
  m.for_each([&](std::uint64_t k, int v) {
    key_sum += k;
    value_sum += v;
  });
  EXPECT_EQ(key_sum, 200ull * 201 / 2);
  EXPECT_EQ(value_sum, 200ll * 201);
}

TEST(FlatMap, BackwardShiftDeletionFuzzAgainstStd) {
  // Interleaved inserts/erases/lookups mirrored against unordered_map;
  // small key space maximizes probe-chain collisions and displacement.
  Xoshiro256 rng(77);
  FlatMap<std::uint32_t> ours;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(512);
    switch (rng.next_below(3)) {
      case 0: {
        const auto v = static_cast<std::uint32_t>(rng.next_below(1000));
        ours[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(ours.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {
        const std::uint32_t* p = ours.find(key);
        const auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(p, nullptr);
        } else {
          ASSERT_NE(p, nullptr);
          EXPECT_EQ(*p, it->second);
        }
      }
    }
  }
  EXPECT_EQ(ours.size(), ref.size());
}

TEST(FlatMap, ReserveAvoidsRehashButStaysCorrect) {
  FlatMap<int> m;
  m.reserve(5000);
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 1; k <= 5000; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 5000u);
}

TEST(FlatSet, BasicOperations) {
  FlatSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, FuzzAgainstStd) {
  Xoshiro256 rng(78);
  FlatSet ours;
  std::unordered_set<std::uint64_t> ref;
  for (int step = 0; step < 100000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(256);
    if (rng.next_bool(0.5)) {
      EXPECT_EQ(ours.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(ours.erase(key), ref.erase(key) > 0);
    }
  }
  EXPECT_EQ(ours.size(), ref.size());
  for (std::uint64_t k : ref) EXPECT_TRUE(ours.contains(k));
}

TEST(FlatMap, ChurnFuzzWithFullContentCrossCheck) {
  // Heavier churn than the basic fuzz: interleaved insert/erase/find plus
  // periodic two-way for_each reconciliation, so backward-shift deletion
  // bugs that leave ghost or lost entries cannot hide.
  Xoshiro256 rng(79);
  FlatMap<std::uint64_t> ours;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 1; step <= 60000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(384);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const std::uint64_t v = rng.next_below(1u << 20);
        ours[key] = v;
        ref[key] = v;
        break;
      }
      case 2:
        ASSERT_EQ(ours.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const std::uint64_t* p = ours.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(p != nullptr, it != ref.end());
        if (p != nullptr) {
          ASSERT_EQ(*p, it->second);
        }
      }
    }
    if (step % 10000 == 0) {
      ASSERT_EQ(ours.size(), ref.size());
      std::size_t visited = 0;
      ours.for_each([&](std::uint64_t k, std::uint64_t v) {
        ++visited;
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "ghost key " << k;
        ASSERT_EQ(v, it->second);
      });
      ASSERT_EQ(visited, ref.size());
    }
  }
}

TEST(FlatMap, BackwardShiftAcrossWrapAroundBoundary) {
  // Build a displacement cluster that straddles the table's wrap-around
  // (slots near capacity-1 spilling into slot 0), then delete inside it.
  // mix64 is public, so we can hand-pick keys by their home slot.
  FlatMap<int> m;
  const std::size_t cap = m.capacity();  // fresh map: 16 slots
  std::vector<std::uint64_t> near_end;
  for (std::uint64_t k = 1; near_end.size() < 5; ++k) {
    if ((detail::mix64(k) & (cap - 1)) >= cap - 2) near_end.push_back(k);
  }
  for (std::size_t i = 0; i < near_end.size(); ++i) {
    m[near_end[i]] = static_cast<int>(i);
  }
  ASSERT_EQ(m.size(), 5u);  // cluster occupies {14, 15, 0, 1, ...}
  // Erase the entries homed nearest the boundary first; the survivors must
  // backward-shift across the wrap and stay findable.
  for (std::size_t i = 0; i < near_end.size(); ++i) {
    ASSERT_TRUE(m.erase(near_end[i]));
    for (std::size_t j = i + 1; j < near_end.size(); ++j) {
      const int* p = m.find(near_end[j]);
      ASSERT_NE(p, nullptr) << "lost key " << near_end[j] << " after erase "
                            << i;
      ASSERT_EQ(*p, static_cast<int>(j));
    }
  }
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, ZeroAndAllOnesAreOrdinaryKeys) {
  // Occupancy lives in the tags, so no key value is reserved.
  FlatMap<int> m;
  m[0] = 1;
  m[~std::uint64_t{0}] = 2;
  EXPECT_EQ(*m.find(0), 1);
  EXPECT_EQ(*m.find(~std::uint64_t{0}), 2);
  EXPECT_TRUE(m.erase(~std::uint64_t{0}));
  EXPECT_FALSE(m.contains(~std::uint64_t{0}));
  EXPECT_TRUE(m.contains(0));
}

TEST(FlatSet, ForEachEnumeratesExactly) {
  FlatSet s;
  for (std::uint64_t k = 10; k < 60; ++k) s.insert(k);
  std::unordered_set<std::uint64_t> seen;
  s.for_each([&](std::uint64_t k) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 50u);
  for (std::uint64_t k = 10; k < 60; ++k) EXPECT_TRUE(seen.count(k));
}

}  // namespace
