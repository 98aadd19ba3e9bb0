// Tests for the standalone cost evaluators (tests/test_util.hpp).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::is_feasible_b_matching;
using rdcn::testing::make_instance;
using rdcn::testing::oblivious_cost;
using rdcn::testing::static_routing_cost;
using rdcn::testing::static_total_cost;

TEST(CostModel, ObliviousIsSumOfDistances) {
  const auto d = net::DistanceMatrix::uniform(5, 3);
  trace::Trace t(5, "x");
  t.push_back(Request::make(0, 1));
  t.push_back(Request::make(2, 4));
  EXPECT_EQ(oblivious_cost(make_instance(d, 1, 1), t), 6u);
}

TEST(CostModel, StaticRoutingUsesMatchedEdgesAtCostOne) {
  const auto d = net::DistanceMatrix::uniform(5, 4);
  trace::Trace t(5, "x");
  t.push_back(Request::make(0, 1));  // matched -> 1
  t.push_back(Request::make(0, 1));  // matched -> 1
  t.push_back(Request::make(2, 3));  // unmatched -> 4
  const std::vector<std::uint64_t> m = {pair_key(0, 1)};
  EXPECT_EQ(static_routing_cost(make_instance(d, 1, 1), t, m), 6u);
}

TEST(CostModel, StaticTotalAddsInstallation) {
  const auto d = net::DistanceMatrix::uniform(5, 4);
  trace::Trace t(5, "x");
  t.push_back(Request::make(0, 1));
  const std::vector<std::uint64_t> m = {pair_key(0, 1), pair_key(2, 3)};
  const Instance inst = make_instance(d, 1, 7);
  EXPECT_EQ(static_total_cost(inst, t, m),
            static_routing_cost(inst, t, m) + 2 * 7);
}

TEST(CostModel, EmptyMatchingEqualsOblivious) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(1);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(16, 1000, rng));
  const Instance inst = make_instance(topo.distances, 2, 5);
  EXPECT_EQ(static_routing_cost(inst, t, {}), oblivious_cost(inst, t));
}

TEST(Feasibility, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(is_feasible_b_matching(4, 1, {pair_key(0, 1), pair_key(2, 3)}));
  // Degree violation at node 0.
  EXPECT_FALSE(is_feasible_b_matching(4, 1, {pair_key(0, 1), pair_key(0, 2)}));
  // Duplicate edge.
  EXPECT_FALSE(is_feasible_b_matching(4, 2, {pair_key(0, 1), pair_key(0, 1)}));
  // Rack out of range.
  EXPECT_FALSE(is_feasible_b_matching(3, 1, {pair_key(0, 7)}));
  // Empty matching is always feasible.
  EXPECT_TRUE(is_feasible_b_matching(4, 1, {}));
}

TEST(Instance, GammaFormula) {
  const auto d = net::DistanceMatrix::uniform(5, 4);
  Instance inst = make_instance(d, 1, 8);
  EXPECT_DOUBLE_EQ(inst.gamma(), 1.0 + 4.0 / 8.0);
}

TEST(Instance, OfflineDegreeDefaultsToB) {
  const auto d = net::DistanceMatrix::uniform(5, 1);
  Instance inst = make_instance(d, 6, 1);
  EXPECT_EQ(inst.offline_degree(), 6u);
  inst.a = 2;
  EXPECT_EQ(inst.offline_degree(), 2u);
}

}  // namespace
