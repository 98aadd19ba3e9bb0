// Behavioural tests of the deterministic BMA baseline (core/bma.hpp).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "net/distance_matrix.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

Instance uniform_instance(const net::DistanceMatrix& d, std::size_t b,
                          std::uint64_t alpha) {
  Instance inst;
  inst.distances = &d;
  inst.b = b;
  inst.alpha = alpha;
  return inst;
}

TEST(Bma, AdmitsAfterPayingAlphaInRoutingCost) {
  const auto d = net::DistanceMatrix::uniform(4, 2);  // every pair 2 hops
  Bma bma(uniform_instance(d, 2, 10));
  const Request r = Request::make(0, 1);
  // Charge accumulates 2 per request; threshold 10 -> 5th request admits.
  for (int i = 0; i < 4; ++i) {
    bma.serve(r);
    EXPECT_FALSE(bma.matching().has(0, 1)) << "after request " << i + 1;
  }
  bma.serve(r);
  EXPECT_TRUE(bma.matching().has(0, 1));
  // Admission cost: exactly one α.
  EXPECT_EQ(bma.costs().reconfig_cost, 10u);
  EXPECT_EQ(bma.costs().edge_adds, 1u);
  // Routing: 5 requests x 2 hops (all before the reconfiguration).
  EXPECT_EQ(bma.costs().routing_cost, 10u);
}

TEST(Bma, MatchedRequestsCostOneAndDontCharge) {
  const auto d = net::DistanceMatrix::uniform(4, 3);
  Bma bma(uniform_instance(d, 2, 6));
  const Request r = Request::make(0, 1);
  for (int i = 0; i < 2; ++i) bma.serve(r);  // 3+3 = 6 >= α -> admitted
  ASSERT_TRUE(bma.matching().has(0, 1));
  const std::uint64_t routing_before = bma.costs().routing_cost;
  for (int i = 0; i < 10; ++i) bma.serve(r);
  EXPECT_EQ(bma.costs().routing_cost, routing_before + 10);  // 1 per serve
  EXPECT_EQ(bma.charge(pair_key(0, 1)), 0u);  // no further charging
}

TEST(Bma, EvictsLeastUsedWhenDegreeFull) {
  const auto d = net::DistanceMatrix::uniform(5, 2);
  Bma bma(uniform_instance(d, 2, 2));  // one 2-hop request admits
  // Fill node 0's degree with {0,1} and {0,2}.
  bma.serve(Request::make(0, 1));
  bma.serve(Request::make(0, 2));
  ASSERT_TRUE(bma.matching().has(0, 1));
  ASSERT_TRUE(bma.matching().has(0, 2));
  // Use {0,1} a lot; {0,2} never again.
  for (int i = 0; i < 5; ++i) bma.serve(Request::make(0, 1));
  // Admit {0,3}: node 0 is full; the least-used edge {0,2} must go.
  bma.serve(Request::make(0, 3));
  EXPECT_TRUE(bma.matching().has(0, 3));
  EXPECT_TRUE(bma.matching().has(0, 1));
  EXPECT_FALSE(bma.matching().has(0, 2));
}

TEST(Bma, TieBreakEvictsOldest) {
  const auto d = net::DistanceMatrix::uniform(5, 2);
  Bma bma(uniform_instance(d, 2, 2));
  bma.serve(Request::make(0, 1));  // admitted first
  bma.serve(Request::make(0, 2));  // admitted second
  // Neither is used after admission (usage 0 both) -> evict the older {0,1}.
  bma.serve(Request::make(0, 3));
  EXPECT_FALSE(bma.matching().has(0, 1));
  EXPECT_TRUE(bma.matching().has(0, 2));
  EXPECT_TRUE(bma.matching().has(0, 3));
}

TEST(Bma, EvictedPairRepaysAlphaFromZero) {
  const auto d = net::DistanceMatrix::uniform(3, 2);
  Bma bma(uniform_instance(d, 1, 4));  // two 2-hop requests admit
  const Request r01 = Request::make(0, 1);
  bma.serve(r01);
  bma.serve(r01);
  ASSERT_TRUE(bma.matching().has(0, 1));
  // {0,2} pays α, and rack 0's only slot goes to it: {0,1} is evicted.
  bma.serve(Request::make(0, 2));
  bma.serve(Request::make(0, 2));
  ASSERT_TRUE(bma.matching().has(0, 2));
  ASSERT_FALSE(bma.matching().has(0, 1));
  EXPECT_EQ(bma.charge(pair_key(0, 1)), 0u);
  // The evicted pair's counter restarts from zero: α again to come back.
  bma.serve(r01);
  EXPECT_EQ(bma.charge(pair_key(0, 1)), 2u);
  EXPECT_FALSE(bma.matching().has(0, 1));
  bma.serve(r01);
  EXPECT_TRUE(bma.matching().has(0, 1));
  EXPECT_FALSE(bma.matching().has(0, 2));
  EXPECT_EQ(bma.costs().edge_adds, 3u);
  EXPECT_EQ(bma.costs().edge_removals, 2u);
}

TEST(Bma, IsDeterministic) {
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 5000, rng));
  Instance inst = uniform_instance(topo.distances, 3, 8);

  Bma a(inst), b(inst);
  for (const Request& r : t) {
    a.serve(r);
    b.serve(r);
  }
  EXPECT_EQ(a.costs().routing_cost, b.costs().routing_cost);
  EXPECT_EQ(a.costs().reconfig_cost, b.costs().reconfig_cost);
  EXPECT_EQ(a.matching().size(), b.matching().size());
}

TEST(Bma, MatchingInvariantsHoldUnderWorkload) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 20000, 1.2, rng));
  Bma bma(uniform_instance(topo.distances, 4, 12));
  for (const Request& r : t) bma.serve(r);
  EXPECT_TRUE(bma.matching().check_invariants());
  // Something was matched on a skewed workload.
  EXPECT_GT(bma.matching().size(), 0u);
  EXPECT_GT(bma.costs().direct_serves, 0u);
}

}  // namespace
