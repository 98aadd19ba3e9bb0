// Unit + fuzz tests for the paging membership set (common/flat_hash.hpp),
// checked against std::unordered_set.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"

namespace {

using namespace rdcn;

TEST(FlatSet, BasicOperations) {
  FlatSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_EQ(s.size(), 0u);
}

TEST(FlatSet, SlotOrderIsPinned) {
  // Marking's phase restarts and FlushWhenFull list the cache in slot
  // order, so the r_bma ledgers depend on it.  Fourteen inserts grow the
  // 16-slot start once; five erases backward-shift.
  FlatSet s;
  for (std::uint64_t k = 1; k <= 14; ++k) s.insert(k * 1000003);
  for (std::uint64_t k = 2; k <= 14; k += 3) s.erase(k * 1000003);
  s.insert(0);
  s.insert(~std::uint64_t{0});
  std::vector<std::uint64_t> order;
  s.for_each([&](std::uint64_t k) { order.push_back(k); });
  const std::vector<std::uint64_t> expected = {
      0,        ~std::uint64_t{0}, 9000027,  3000009,
      12000036, 1000003,           4000012,  7000021,
      6000018,  13000039,          10000030};
  EXPECT_EQ(order, expected);
}

TEST(FlatSet, ChurnFuzzWithFullContentCrossCheck) {
  // Interleaved insert/erase/contains over a small key space (long probe
  // chains, growth, displacement) plus periodic two-way for_each
  // reconciliation, so backward-shift deletion bugs that leave ghost or
  // lost keys cannot hide.
  Xoshiro256 rng(79);
  FlatSet ours;
  std::unordered_set<std::uint64_t> ref;
  for (int step = 1; step <= 100000; ++step) {
    const std::uint64_t key = 1 + rng.next_below(384);
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        ASSERT_EQ(ours.insert(key), ref.insert(key).second);
        break;
      case 2:
        ASSERT_EQ(ours.erase(key), ref.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(ours.contains(key), ref.contains(key));
    }
    if (step % 10000 == 0) {
      ASSERT_EQ(ours.size(), ref.size());
      std::size_t visited = 0;
      ours.for_each([&](std::uint64_t k) {
        ++visited;
        ASSERT_TRUE(ref.contains(k)) << "ghost key " << k;
      });
      ASSERT_EQ(visited, ref.size());
    }
  }
}

TEST(FlatSet, BackwardShiftAcrossWrapAroundBoundary) {
  // Build a displacement cluster that straddles the table's wrap-around
  // (slots near the end spilling into slot 0), then delete inside it.  A
  // new set has 16 slots and mix64 is public, so we can hand-pick keys by
  // their home slot.
  constexpr std::size_t kSlots = 16;
  FlatSet s;
  std::unordered_set<std::uint64_t> ref;
  std::vector<std::uint64_t> near_end;
  for (std::uint64_t k = 1; near_end.size() < 5; ++k) {
    if ((detail::mix64(k) & (kSlots - 1)) >= kSlots - 2) near_end.push_back(k);
  }
  for (std::uint64_t k : near_end) {
    s.insert(k);
    ref.insert(k);
  }
  ASSERT_EQ(s.size(), 5u);  // cluster occupies {14, 15, 0, 1, ...}
  // Erase the keys homed nearest the boundary first; the survivors must
  // backward-shift across the wrap and stay findable.
  for (std::uint64_t k : near_end) {
    ASSERT_TRUE(s.erase(k));
    ref.erase(k);
    for (std::uint64_t other : near_end)
      ASSERT_EQ(s.contains(other), ref.contains(other))
          << "key " << other << " after erasing " << k;
  }
  EXPECT_EQ(s.size(), 0u);
}

TEST(FlatSet, ZeroAndAllOnesAreOrdinaryKeys) {
  // Occupancy lives in the tags, so no key value is reserved.
  Xoshiro256 rng(80);
  FlatSet ours;
  std::unordered_set<std::uint64_t> ref;
  const std::uint64_t keys[] = {0, ~std::uint64_t{0}, 1,
                                ~std::uint64_t{0} - 1};
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t key = keys[rng.next_below(4)];
    if (rng.next_bool(0.5)) {
      ASSERT_EQ(ours.insert(key), ref.insert(key).second);
    } else {
      ASSERT_EQ(ours.erase(key), ref.erase(key) > 0);
    }
    for (std::uint64_t k : keys) ASSERT_EQ(ours.contains(k), ref.contains(k));
  }
  EXPECT_EQ(ours.size(), ref.size());
}

}  // namespace
