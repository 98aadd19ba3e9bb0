// Tests for the demand-oblivious rotor baseline (core/rotor.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "core/rotor.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(Rotor, ScheduleCoversAllPairsForEvenN) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  Rotor rotor(make_instance(d, 1, 10));
  EXPECT_EQ(rotor.schedule_length(), 7u);  // n-1 perfect matchings

  // Drive through one full rotation with slot_length=100 and b=1: every
  // pair must be directly connected in exactly one slot.
  RotorOptions opts;
  opts.slot_length = 1;
  Rotor spinner(make_instance(d, 1, 10), opts);
  std::unordered_set<std::uint64_t> seen;
  trace::Trace dummy(8, "spin");
  for (int i = 0; i < 7; ++i) {
    for (std::uint64_t k : spinner.matching().edge_keys()) seen.insert(k);
    spinner.serve(trace::Request::make(0, 1));  // advances the slot
  }
  EXPECT_EQ(seen.size(), 8u * 7 / 2);  // all 28 pairs covered
}

/// Round r of the circle method over n racks, computed independently of
/// Rotor: with m = n rounded up to even, rack m−1 plays r and, for
/// k = 1 … m/2−1, (r+k) mod (m−1) plays (r−k) mod (m−1).  A pair with a
/// rack ≥ n is a bye.  Returned sorted.
std::vector<std::uint64_t> circle_round(std::size_t n, std::size_t r) {
  const std::size_t m = n + n % 2;
  std::vector<std::uint64_t> round;
  auto play = [&](std::size_t a, std::size_t b) {
    if (a < n && b < n)
      round.push_back(pair_key(static_cast<Rack>(a), static_cast<Rack>(b)));
  };
  play(r, m - 1);
  for (std::size_t k = 1; k < m / 2; ++k)
    play((r + k) % (m - 1), (r + m - 1 - k) % (m - 1));
  std::sort(round.begin(), round.end());
  return round;
}

TEST(Rotor, MatchingIsTheUnionOfTheSlotsCircleRounds) {
  // After every slot of two full rotations at slot=1, the matching is the
  // union of the b rounds the slot plays (switch j on round
  // slot + j·stride), checked against circle_round; and the rounds
  // partition the pairs, which is why Rotor can diff whole rounds.
  for (std::size_t n = 2; n <= 13; ++n) {
    const std::size_t rounds = n + n % 2 - 1;
    std::vector<int> plays_in(n * n, 0);
    for (std::size_t r = 0; r < rounds; ++r)
      for (std::uint64_t key : circle_round(n, r))
        ++plays_in[pair_lo(key) * n + pair_hi(key)];
    for (Rack u = 0; u < n; ++u)
      for (Rack v = u + 1; v < n; ++v)
        ASSERT_EQ(plays_in[u * n + v], 1) << "n=" << n << " pair " << u
                                          << "," << v;

    const auto d = net::DistanceMatrix::uniform(n, 2);
    for (std::size_t b : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          n - 1, n + 3}) {
      for (bool staggered : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b) +
                     " staggered=" + std::to_string(staggered));
        RotorOptions opts;
        opts.slot_length = 1;
        opts.staggered = staggered;
        Rotor rotor(make_instance(d, b, 10), opts);
        ASSERT_EQ(rotor.schedule_length(), rounds);
        const std::size_t switches = std::min(b, rounds);
        const std::size_t stride =
            staggered ? std::max<std::size_t>(1, rounds / switches) : 1;
        for (std::size_t slot = 0; slot <= 2 * rounds; ++slot) {
          std::vector<std::uint64_t> expected;
          for (std::size_t j = 0; j < switches; ++j) {
            const auto round = circle_round(n, (slot + j * stride) % rounds);
            expected.insert(expected.end(), round.begin(), round.end());
          }
          std::sort(expected.begin(), expected.end());
          std::vector<std::uint64_t> actual = rotor.matching().edge_keys();
          std::sort(actual.begin(), actual.end());
          ASSERT_EQ(actual, expected) << "slot " << slot;
          rotor.serve(Request::make(0, 1));  // advances the slot
        }
      }
    }
  }
}

TEST(Rotor, OddNUsesByes) {
  const auto d = net::DistanceMatrix::uniform(7, 2);
  Rotor rotor(make_instance(d, 1, 10));
  EXPECT_EQ(rotor.schedule_length(), 7u);  // (n+1)-1 rounds with byes
  // With b=1 each slot matches at most floor(7/2)=3 pairs.
  EXPECT_LE(rotor.matching().size(), 3u);
}

TEST(Rotor, RespectsDegreeCapWithManySwitches) {
  const auto d = net::DistanceMatrix::uniform(10, 2);
  for (std::size_t b : {1ul, 3ul, 5ul, 9ul, 20ul}) {
    RotorOptions opts;
    opts.slot_length = 7;
    Rotor rotor(make_instance(d, b, 10), opts);
    Xoshiro256 rng(b);
    for (int i = 0; i < 2000; ++i) {
      const auto u = static_cast<Rack>(rng.next_below(10));
      auto v = static_cast<Rack>(rng.next_below(9));
      if (v >= u) ++v;
      rotor.serve(Request::make(u, v));
      ASSERT_TRUE(rotor.matching().check_invariants());
    }
  }
}

TEST(Rotor, ReconfigurationsAreNotCharged) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  RotorOptions opts;
  opts.slot_length = 5;
  Rotor rotor(make_instance(d, 2, 50), opts);
  for (int i = 0; i < 500; ++i) rotor.serve(Request::make(0, 1));
  EXPECT_EQ(rotor.costs().reconfig_cost, 0u);
  EXPECT_GT(rotor.costs().prescheduled_ops, 0u);
}

TEST(Rotor, ObliviousToDemandButBeatsFixedNetwork) {
  // On skewed traffic the rotor still helps (every pair gets direct slots
  // a b/(n-1) fraction of the time) but demand-aware R-BMA does far
  // better — the paper's motivating comparison.
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(9);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 40000, 1.2, rng));
  const Instance inst = make_instance(topo.distances, 4, 30);

  auto run = [&](const char* algo) {
    auto m = scenario::make_algorithm(algo, inst, &t, 3);
    for (const Request& r : t) m->serve(r);
    return m->costs().routing_cost;
  };
  const std::uint64_t rotor = run("rotor");
  const std::uint64_t oblivious = run("oblivious");
  const std::uint64_t rbma = run("r_bma");
  EXPECT_LT(rotor, oblivious);
  EXPECT_LT(rbma, rotor);
}

TEST(Rotor, FactoryConstructs) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  auto m = scenario::make_algorithm("rotor", make_instance(d, 2, 10));
  EXPECT_EQ(m->name(), "rotor");
}

}  // namespace
