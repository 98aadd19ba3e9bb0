// Behavioural tests for the LFU and ARC paging engines.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "paging/arc.hpp"
#include "paging/belady.hpp"
#include "paging/lfu.hpp"
#include "paging/lru.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::paging;

void feed(PagingAlgorithm& alg, const std::vector<Key>& seq) {
  std::vector<Key> ev;
  for (Key k : seq) {
    ev.clear();
    alg.request(k, ev);
  }
}

// ---------------------------------------------------------------- LFU ----

TEST(Lfu, TracksFrequencies) {
  Lfu lfu(3);
  feed(lfu, {1, 1, 1, 2, 2, 3});
  EXPECT_EQ(lfu.frequency(1), 3u);
  EXPECT_EQ(lfu.frequency(2), 2u);
  EXPECT_EQ(lfu.frequency(3), 1u);
  EXPECT_EQ(lfu.frequency(99), 0u);
}

TEST(Lfu, EvictsLeastFrequent) {
  Lfu lfu(3);
  feed(lfu, {1, 1, 1, 2, 2, 3});
  std::vector<Key> ev;
  lfu.request(4, ev);  // 3 has the lowest count
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 3u);
  EXPECT_TRUE(lfu.contains(1));
  EXPECT_TRUE(lfu.contains(2));
  EXPECT_TRUE(lfu.contains(4));
}

TEST(Lfu, TieBreaksByRecencyWithinBucket) {
  Lfu lfu(3);
  feed(lfu, {1, 2, 3});  // all frequency 1; LRU within bucket is 1
  std::vector<Key> ev;
  lfu.request(4, ev);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 1u);
}

TEST(Lfu, NewKeysStartAtFrequencyOneEvenAfterChurn) {
  Lfu lfu(2);
  feed(lfu, {1, 1, 1, 2});
  std::vector<Key> ev;
  lfu.request(3, ev);  // evicts 2 (freq 1, LRU)
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 2u);
  EXPECT_EQ(lfu.frequency(3), 1u);
}

TEST(Lfu, WarmedHotSetSurvivesTransientRuns) {
  // Once a hot set has built up frequency, LFU pins it: incoming
  // transients (frequency 1) can only displace each other.  LRU instead
  // loses the whole hot set whenever >= capacity transients arrive in a
  // row.  Capacity 5 = 4 hot keys + 1 churn slot.
  Lfu lfu(5);
  Lru lru(5);
  std::vector<Key> seq;
  for (int round = 0; round < 10; ++round)        // warmup
    for (Key k = 1; k <= 4; ++k) seq.push_back(k);
  Xoshiro256 rng(3);
  Key fresh = 1000;
  for (int i = 0; i < 4000; ++i) {
    seq.push_back(rng.next_bool(0.5) ? 1 + rng.next_below(4) : fresh++);
  }
  feed(lfu, seq);
  feed(lru, seq);
  for (Key k = 1; k <= 4; ++k) EXPECT_TRUE(lfu.contains(k)) << k;
  EXPECT_LT(lfu.faults(), lru.faults());
}

TEST(Lfu, ColdStartThrashOnLongPeriodElephant) {
  // Documented limitation (why the paper's marking engine uses phase
  // resets instead of raw counts): an elephant returning with period >
  // capacity re-enters at frequency 1 each time and keeps getting evicted
  // as the oldest key of the frequency-1 bucket — LFU gains nothing over
  // faulting always.
  Lfu lfu(4);
  Xoshiro256 rng(3);
  std::vector<Key> seq;
  std::size_t elephant_requests = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool elephant = (i % 8 == 0);
    elephant_requests += elephant;
    seq.push_back(elephant ? 1 : 100 + rng.next_below(50));
  }
  feed(lfu, seq);
  // The elephant faults nearly every visit.
  EXPECT_GT(lfu.faults(), elephant_requests);
}

// ---------------------------------------------------------------- ARC ----

TEST(Arc, SecondTouchPromotesToFrequencyList) {
  Arc arc(4);
  feed(arc, {1, 2});
  EXPECT_EQ(arc.recency_list_size(), 2u);
  EXPECT_EQ(arc.frequency_list_size(), 0u);
  feed(arc, {1});
  EXPECT_EQ(arc.recency_list_size(), 1u);
  EXPECT_EQ(arc.frequency_list_size(), 1u);
}

TEST(Arc, GhostHitAdaptsTarget) {
  Arc arc(2);
  // 1,2 fill T1; re-touching 1 moves it to T2; 3 then evicts 2 (the LRU of
  // T1) into the B1 ghost list.
  feed(arc, {1, 2, 1, 3});
  EXPECT_FALSE(arc.contains(2));
  const std::size_t p_before = arc.adaptation_target();
  feed(arc, {2});  // ghost hit in B1 -> p grows
  EXPECT_GT(arc.adaptation_target(), p_before);
  EXPECT_TRUE(arc.contains(2));
}

TEST(Arc, FullRecencyListEvictsWithoutGhost) {
  // The |T1| = c, B1 empty corner of the ARC case analysis: the T1 LRU is
  // dropped outright, so re-requesting it later is a plain miss that does
  // not adapt p.
  Arc arc(2);
  feed(arc, {1, 2, 3});  // T1 full, B1 empty -> 1 dropped without ghost
  EXPECT_FALSE(arc.contains(1));
  const std::size_t p_before = arc.adaptation_target();
  feed(arc, {1});
  EXPECT_EQ(arc.adaptation_target(), p_before);
}

TEST(Arc, ScanResistance) {
  // Establish a hot working set, then stream a long one-shot scan: ARC
  // must fault less than LRU, which lets the scan flush the hot set.
  const std::size_t cap = 8;
  Arc arc(cap);
  Lru lru(cap);
  std::vector<Key> seq;
  Xoshiro256 rng(4);
  for (int round = 0; round < 400; ++round) {
    // Hot set 1..4 touched twice per round (builds frequency), plus two
    // scan keys that never repeat.
    for (Key k = 1; k <= 4; ++k) seq.push_back(k);
    for (Key k = 1; k <= 4; ++k) seq.push_back(k);
    seq.push_back(10000 + 2 * round);
    seq.push_back(10001 + 2 * round);
  }
  feed(arc, seq);
  feed(lru, seq);
  EXPECT_LE(arc.faults(), lru.faults());
  // The hot set must be resident in ARC at the end.
  for (Key k = 1; k <= 4; ++k) EXPECT_TRUE(arc.contains(k));
}

TEST(Arc, NeverBeatsBeladyButStaysReasonable) {
  Xoshiro256 rng(5);
  std::vector<Key> seq;
  for (int i = 0; i < 5000; ++i) seq.push_back(1 + rng.next_below(20));
  Arc arc(6);
  feed(arc, seq);
  const std::uint64_t opt = Belady::optimal_faults(6, seq);
  EXPECT_GE(arc.faults(), opt);
  EXPECT_LT(arc.faults(), 20 * opt);
}

}  // namespace
