// Tests for the epoch-based dynamic offline comparator
// (core/offline_dynamic.hpp).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/offline_dynamic.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(OfflineDynamic, WindowCountMatchesTraceLength) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(1);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(16, 10000, rng));
  OfflineDynamicOptions opts;
  opts.window = 3000;
  OfflineDynamic alg(make_instance(topo.distances, 2, 10), t, opts);
  EXPECT_EQ(alg.num_windows(), 4u);  // ceil(10000/3000)
}

TEST(OfflineDynamic, SingleWindowEqualsSoBmaRouting) {
  // With W >= trace length and no prior window, the plan is exactly the
  // SO-BMA matching (same weights, same solver).
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(2);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 20000, 1.2, rng));
  const Instance inst = make_instance(topo.distances, 3, 10);

  OfflineDynamicOptions opts;
  opts.window = t.size();
  OfflineDynamic dyn(inst, t, opts);
  const auto so = scenario::make_algorithm("so_bma", inst, &t);
  for (const Request& r : t) {
    dyn.serve(r);
    so->serve(r);
  }
  EXPECT_EQ(dyn.costs().routing_cost, so->costs().routing_cost);
  EXPECT_EQ(dyn.costs().total_cost(), so->costs().total_cost());
}

TEST(OfflineDynamic, AdaptsToRegimeChange) {
  // Phase 1 hammers one pair set, phase 2 a disjoint one.  A window
  // aligned to the phase boundary must beat the static matching when b is
  // too small to hold both sets.
  const std::size_t n = 12;
  const auto d = net::DistanceMatrix::uniform(n, 4);
  trace::Trace t(n, "regime");
  for (int i = 0; i < 10000; ++i)
    t.push_back(trace::Request::make(0, 1 + static_cast<trace::Rack>(i % 3)));
  for (int i = 0; i < 10000; ++i)
    t.push_back(trace::Request::make(0, 4 + static_cast<trace::Rack>(i % 3)));
  const Instance inst = make_instance(d, 3, 50);

  OfflineDynamicOptions opts;
  opts.window = 10000;
  OfflineDynamic dyn(inst, t, opts);
  const auto so = scenario::make_algorithm("so_bma", inst, &t);
  for (const Request& r : t) {
    dyn.serve(r);
    so->serve(r);
  }
  EXPECT_LT(dyn.costs().total_cost(), so->costs().total_cost());
}

TEST(OfflineDynamic, RetentionBonusReducesSwitching) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(3);
  trace::FlowPoolParams p;
  p.candidate_pairs = 150;
  p.mean_burst_length = 20.0;
  const trace::Trace t =
      trace::materialize(*trace::stream_flow_pool(20, 60000, p, rng));
  const Instance inst = make_instance(topo.distances, 3, 40);

  OfflineDynamicOptions sticky;
  sticky.window = 5000;
  sticky.retention_bonus = 2.0;
  OfflineDynamicOptions loose = sticky;
  loose.retention_bonus = 0.0;

  OfflineDynamic a(inst, t, sticky), b(inst, t, loose);
  for (const Request& r : t) {
    a.serve(r);
    b.serve(r);
  }
  EXPECT_LE(a.costs().edge_removals, b.costs().edge_removals);
}

TEST(OfflineDynamic, FeasibleThroughout) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 30000, 1.0, rng));
  OfflineDynamicOptions opts;
  opts.window = 4000;
  OfflineDynamic alg(make_instance(topo.distances, 2, 10, /*a=*/1), t, opts);
  for (std::size_t i = 0; i < t.size(); ++i) {
    alg.serve(t[i]);
    if (i % 2000 == 0) {
      ASSERT_TRUE(alg.matching().check_invariants());
      // (b,a): the offline comparator keeps degree <= a = 1.
      for (trace::Rack v = 0; v < 16; ++v)
        ASSERT_LE(alg.matching().degree(v), 1u);
    }
  }
  EXPECT_TRUE(alg.matching().check_invariants());
}

}  // namespace
