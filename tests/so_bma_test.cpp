// Tests for the static offline comparator SO-BMA (core/so_bma.hpp).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/oblivious.hpp"
#include "core/so_bma.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;
using rdcn::testing::static_total_cost;

TEST(SoBma, InstallsOnceAndNeverReconfigures) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(1);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 10000, 1.2, rng));
  SoBma alg(make_instance(topo.distances, 3, 10), t);
  const std::uint64_t installed = alg.costs().edge_adds;
  EXPECT_GT(installed, 0u);
  for (const Request& r : t) alg.serve(r);
  EXPECT_EQ(alg.costs().edge_adds, installed);
  EXPECT_EQ(alg.costs().edge_removals, 0u);
  EXPECT_TRUE(alg.matching().check_invariants());
}

TEST(SoBma, MatchesTopPairsOfTheDemand) {
  // A trace dominated by one far pair: SO-BMA must match it.
  const net::Topology topo = net::make_fat_tree(16);
  trace::Trace t(16, "dominant");
  for (int i = 0; i < 1000; ++i) t.push_back(Request::make(0, 15));
  t.push_back(Request::make(3, 4));
  SoBma alg(make_instance(topo.distances, 2, 10), t);
  EXPECT_TRUE(alg.matching().has(0, 15));
}

TEST(SoBma, SkipsAdjacentPairs) {
  // Pairs at fixed-network distance 1 gain nothing from matching.
  const auto d = net::DistanceMatrix::uniform(6, 1);
  trace::Trace t(6, "adjacent");
  for (int i = 0; i < 100; ++i) t.push_back(Request::make(0, 1));
  SoBma alg(make_instance(d, 2, 10), t);
  EXPECT_EQ(alg.matching().size(), 0u);
}

TEST(SoBma, BeatsObliviousOnSkewedTraffic) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(2);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 30000, 1.3, rng));
  const Instance inst = make_instance(topo.distances, 4, 50);

  SoBma so(inst, t);
  Oblivious obl(inst);
  for (const Request& r : t) {
    so.serve(r);
    obl.serve(r);
  }
  EXPECT_LT(so.costs().total_cost(), obl.costs().total_cost());
}

TEST(SoBma, RespectsOfflineDegreeBoundA) {
  // (b,a)-matching: online cap 4, offline cap 2 — SO-BMA must stay at 2.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 20000, 1.0, rng));
  SoBma alg(make_instance(topo.distances, 4, 10, /*a=*/2), t);
  for (Rack v = 0; v < 16; ++v) EXPECT_LE(alg.matching().degree(v), 2u);
}

TEST(SoBma, CostEqualsStaticEvaluation) {
  // Running SO-BMA through the simulator must price exactly like the
  // standalone static evaluator on its chosen matching.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 8000, 1.1, rng));
  const Instance inst = make_instance(topo.distances, 3, 10);
  SoBma alg(inst, t);
  const auto chosen = alg.matching().edge_keys();
  for (const Request& r : t) alg.serve(r);
  EXPECT_EQ(alg.costs().total_cost(),
            static_total_cost(inst, t, chosen));
}

}  // namespace
