// Executable form of the paper's lower-bound construction (§2.4, Lemma 1):
// b-matching on a star graph embeds (b,a)-paging, separating deterministic
// Θ(b) from randomized O(log b).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/adversarial.hpp"
#include "core/bma.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

// Lemma 1 embedding: a paging request to item i becomes a block of α
// requests to the star pair {hub=0, i}.
trace::Trace lemma1_trace(const std::vector<std::uint64_t>& paging_seq,
                          std::size_t num_racks, std::uint64_t alpha) {
  trace::Trace t(num_racks, "lemma1");
  for (std::uint64_t item : paging_seq) {
    for (std::uint64_t i = 0; i < alpha; ++i)
      t.push_back(Request::make(0, static_cast<Rack>(1 + item)));
  }
  return t;
}

TEST(LowerBound, StarTopologyHasTheLemmaOneShape) {
  const net::Topology star = net::make_star(8);
  // Hub is not a rack; racks pairwise at distance 2.
  for (Rack i = 0; i < 8; ++i)
    for (Rack j = i + 1; j < 8; ++j) EXPECT_EQ(star.distances(i, j), 2);
}

TEST(LowerBound, BlockRequestsMakeMatchingDecisionsPagingLike) {
  // With blocks of α requests, R-BMA turns each block into ≈ ℓe·... >= 1
  // special request, i.e. it sees exactly the paging instance.
  const net::Topology star = net::make_star(10);
  const std::uint64_t alpha = 8;
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> paging_seq;
  for (int i = 0; i < 300; ++i) paging_seq.push_back(rng.next_below(6));
  const trace::Trace t = lemma1_trace(paging_seq, 10, alpha);

  RBma alg(make_instance(star.distances, 3, alpha), {.seed = 4});
  for (const Request& r : t) alg.serve(r);
  // ke = ceil(8/2) = 4 -> 2 specials per block of 8.
  EXPECT_EQ(alg.special_requests(), paging_seq.size() * 2);
  for (Rack v = 0; v < 10; ++v) EXPECT_LE(alg.matching().degree(v), 3u);
}

TEST(LowerBound, RoundRobinHurtsSmallDegreeMoreThanLarge) {
  // Round-robin over b+1 hub pairs: with degree b every algorithm churns;
  // with degree b+1 the matching eventually covers all pairs and the cost
  // rate collapses.  This is the cliff the lower bound exploits.
  const net::Topology star = net::make_star(12);
  const std::size_t k = 5;  // pairs {0,1}..{0,6} cycle
  const trace::Trace t =
      trace::materialize(*trace::stream_round_robin_star(12, 30000, k));

  auto run_cost = [&](std::size_t b) {
    RBma alg(make_instance(star.distances, b, 4), {.seed = 5});
    for (const Request& r : t) alg.serve(r);
    return alg.costs().total_cost();
  };
  const std::uint64_t cost_tight = run_cost(k);      // b = k < k+1 pairs
  const std::uint64_t cost_loose = run_cost(k + 1);  // all pairs fit
  // With all pairs matched, cost approaches 1 per request; with one pair
  // always missing, faults and 2-hop serves keep the rate strictly higher.
  EXPECT_LT(cost_loose, cost_tight);
  EXPECT_LT(static_cast<double>(cost_loose),
            1.2 * static_cast<double>(t.size()));
}

TEST(LowerBound, DeterministicBmaChurnsOnAdversarialRoundRobin) {
  // BMA admits every pair after α routing cost and must evict another —
  // the deterministic Θ(b) pathology: reconfiguration cost keeps growing
  // linearly in the request count.
  const net::Topology star = net::make_star(12);
  const std::size_t b = 4;
  // b+1 pairs cycling.
  const trace::Trace t =
      trace::materialize(*trace::stream_round_robin_star(12, 40000, b));

  Bma bma(make_instance(star.distances, b, 6));
  for (const Request& r : t) bma.serve(r);
  // Each pair re-pays α every cycle: reconfig ops scale with requests/α.
  const double ops_rate =
      static_cast<double>(bma.costs().edge_adds + bma.costs().edge_removals) /
      static_cast<double>(t.size());
  EXPECT_GT(ops_rate, 0.05);
}

TEST(LowerBound, RandomizedBeatsDeterministicOnChasingAdversary) {
  // The deterministic Θ(b) lower bound needs an ADAPTIVE adversary: it
  // always requests a hub pair BMA does not currently have matched.
  // Because BMA is deterministic, that adversary compiles into a fixed
  // sequence (generate_chasing_trace drives a victim copy).  On the very
  // same sequence, a fresh BMA replays the chase and bleeds, while R-BMA's
  // random evictions break the correlation and pay much less.
  const net::Topology star = net::make_star(12);
  const std::size_t b = 6;
  const Instance inst = make_instance(star.distances, b, 6);

  Bma victim(inst);
  const trace::Trace t = generate_chasing_trace(victim, 12, b, 60000);

  Bma bma(inst);
  for (const Request& r : t) bma.serve(r);
  // Determinism check: the fresh copy behaved exactly like the victim.
  EXPECT_EQ(bma.costs().total_cost(), victim.costs().total_cost());
  // Every request was a miss for BMA (the definition of the chase).
  EXPECT_EQ(bma.costs().direct_serves, 0u);

  double rbma_total = 0.0;
  const int seeds = 5;
  for (int s = 1; s <= seeds; ++s) {
    RBma rbma(inst, {.seed = static_cast<std::uint64_t>(s)});
    for (const Request& r : t) rbma.serve(r);
    rbma_total += static_cast<double>(rbma.costs().total_cost());
  }
  const double rbma_mean = rbma_total / seeds;
  EXPECT_LT(rbma_mean, static_cast<double>(bma.costs().total_cost()));
}

}  // namespace
