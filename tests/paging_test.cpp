// Unit + property tests for the paging engines (src/paging).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "paging/belady.hpp"
#include "paging/clock.hpp"
#include "paging/factory.hpp"
#include "paging/lru.hpp"
#include "paging/marking.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::paging;

std::vector<Key> drive(PagingAlgorithm& alg, const std::vector<Key>& seq) {
  std::vector<Key> all_evicted, evicted;
  for (Key k : seq) {
    evicted.clear();
    alg.request(k, evicted);
    for (Key e : evicted) all_evicted.push_back(e);
  }
  return all_evicted;
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  Lru lru(3);
  std::vector<Key> ev;
  drive(lru, {1, 2, 3});
  EXPECT_EQ(lru.faults(), 3u);
  lru.request(1, ev);  // hit: 1 becomes most recent
  EXPECT_TRUE(ev.empty());
  lru.request(4, ev);  // fault: 2 is LRU
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 2u);
  EXPECT_TRUE(lru.contains(1));
  EXPECT_TRUE(lru.contains(3));
  EXPECT_TRUE(lru.contains(4));
}

TEST(Lru, HitChainKeepsEverythingResident) {
  Lru lru(2);
  drive(lru, {1, 2, 1, 2, 1, 2, 1, 2});
  EXPECT_EQ(lru.faults(), 2u);
  EXPECT_EQ(lru.hits(), 6u);
}

TEST(Fifo, EvictsInInsertionOrderRegardlessOfHits) {
  auto fifo = make_engine(EngineKind::kFifo, 2, Xoshiro256(1));
  std::vector<Key> ev;
  drive(*fifo, {1, 2, 1, 1, 1});  // many hits on 1
  fifo->request(3, ev);           // evicts 1 (first in), not 2
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 1u);
}

TEST(Marking, NeverEvictsMarkedKeys) {
  Marking m(3, Xoshiro256(5));
  std::vector<Key> ev;
  drive(m, {1, 2, 3});
  // All three were faulted in => marked. Requesting 4 starts a new phase;
  // 4 is then marked, the victim is a random unmarked one of {1,2,3}.
  m.request(4, ev);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_TRUE(m.contains(4));
  EXPECT_TRUE(m.is_marked(4));
  EXPECT_EQ(m.phases(), 1u);
  // Now mark one survivor by requesting it: it must survive the next fault.
  const Key survivor = m.cached_keys()[0] == 4 ? m.cached_keys()[1]
                                               : m.cached_keys()[0];
  m.request(survivor, ev);
  ev.clear();
  m.request(77, ev);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_NE(ev[0], survivor);
  EXPECT_NE(ev[0], 4u);
}

TEST(Marking, PhaseCountMatchesDistinctKeyBlocks) {
  Marking m(2, Xoshiro256(6));
  // Blocks of 2 distinct keys: {1,2}, {3,4}, {5,6} => 2 new phases after
  // the first block fills the cache.
  drive(m, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.phases(), 2u);
}

TEST(ClockPaging, SecondChanceSparesReferencedKey) {
  ClockPaging clock(3);
  // 4 sweeps every reference bit clear and evicts 1; the hit on 2 sets
  // its bit again, so 5 passes over 2 and evicts 3.
  EXPECT_EQ(drive(clock, {1, 2, 3, 4, 2, 5}), (std::vector<Key>{1, 3}));
  EXPECT_TRUE(clock.contains(2));
  EXPECT_EQ(clock.hits(), 1u);
}

TEST(Belady, FaultsMatchHandComputedExample) {
  // Classic example: capacity 3, sequence 1 2 3 4 1 2 5 1 2 3 4 5.
  const std::vector<Key> seq = {1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5};
  // OPT(MIN) faults: 1,2,3 (cold), 4 (evict 3), 5 (evict 4), 3, 4 -> total 7.
  EXPECT_EQ(Belady::optimal_faults(3, seq), 7u);
}

TEST(Factory, RoundTripNames) {
  for (const char* name : {"marking", "lru", "fifo", "clock", "random",
                           "flush_when_full", "lfu", "arc"}) {
    EngineKind kind = EngineKind::kMarking;
    ASSERT_TRUE(try_parse_engine(name, &kind)) << name;
    EXPECT_EQ(engine_name(kind), name);
    auto engine = make_engine(kind, 4, Xoshiro256(1));
    EXPECT_EQ(engine->name(), name);
    EXPECT_EQ(engine->capacity(), 4u);
  }
}

// ---------------------------------------------------------------------------
// Property sweep over all engines and capacities.
// ---------------------------------------------------------------------------

class EngineProperty
    : public ::testing::TestWithParam<std::tuple<EngineKind, int>> {};

TEST_P(EngineProperty, CoreInvariantsUnderRandomWorkload) {
  const auto [kind, capacity] = GetParam();
  auto engine = make_engine(kind, capacity, Xoshiro256(11));
  Xoshiro256 rng(12);

  std::vector<Key> evicted;
  std::uint64_t requests = 0;
  for (int step = 0; step < 20000; ++step) {
    const Key k = 1 + rng.next_below(3 * static_cast<std::uint64_t>(capacity));
    evicted.clear();
    engine->request(k, evicted);
    ++requests;
    // 1. The requested key is always resident afterwards (non-bypassing).
    ASSERT_TRUE(engine->contains(k));
    // 2. Capacity is never exceeded.
    ASSERT_LE(engine->size(), engine->capacity());
    // 3. Evicted keys are truly gone (unless re-requested — not here).
    for (Key e : evicted) {
      if (e != k) {
        ASSERT_FALSE(engine->contains(e));
      }
    }
    // 4. Ledger: hits + faults == requests.
    ASSERT_EQ(engine->hits() + engine->faults(), requests);
  }
}

TEST_P(EngineProperty, WorkingSetWithinCapacityNeverRefaults) {
  const auto [kind, capacity] = GetParam();
  auto engine = make_engine(kind, capacity, Xoshiro256(31));
  Xoshiro256 rng(32);
  std::vector<Key> evicted;
  // Touch exactly `capacity` keys, then hammer them in random order: after
  // the cold misses no engine may fault again.
  for (Key k = 1; k <= static_cast<Key>(capacity); ++k)
    engine->request(k, evicted);
  const std::uint64_t cold = engine->faults();
  EXPECT_EQ(cold, static_cast<std::uint64_t>(capacity));
  for (int i = 0; i < 5000; ++i) {
    const Key k = 1 + rng.next_below(capacity);
    evicted.clear();
    engine->request(k, evicted);
  }
  EXPECT_EQ(engine->faults(), cold);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineProperty,
    ::testing::Combine(::testing::Values(EngineKind::kMarking,
                                         EngineKind::kLru, EngineKind::kFifo,
                                         EngineKind::kClock,
                                         EngineKind::kRandom,
                                         EngineKind::kFlushWhenFull,
                                         EngineKind::kLfu, EngineKind::kArc),
                       ::testing::Values(1, 2, 3, 8, 17)));

}  // namespace
