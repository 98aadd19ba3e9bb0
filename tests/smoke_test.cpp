// End-to-end smoke: the umbrella header compiles and a tiny simulation of
// every algorithm family runs with consistent ledgers.
#include <gtest/gtest.h>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

TEST(Smoke, EndToEndTinySimulation) {
  Xoshiro256 rng(7);
  const net::Topology topo = net::make_fat_tree(16);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 2000, 1.0, rng));

  core::Instance inst;
  inst.distances = &topo.distances;
  inst.b = 4;
  inst.alpha = 10;

  for (const char* name : {"r_bma", "bma", "greedy", "oblivious", "so_bma"}) {
    auto matcher = scenario::make_algorithm(name, inst, &t, 1);
    const sim::RunResult r = sim::run_to_completion(*matcher, t);
    EXPECT_EQ(r.final().requests, t.size()) << name;
    EXPECT_GT(r.final().routing_cost, 0u) << name;
    EXPECT_TRUE(matcher->matching().check_invariants()) << name;
    // Ledger identity: total = routing + reconfig; reconfig = α * ops.
    EXPECT_EQ(r.final().total_cost,
              r.final().routing_cost + r.final().reconfig_cost)
        << name;
    EXPECT_EQ(r.final().reconfig_cost,
              inst.alpha * (r.final().edge_adds + r.final().edge_removals))
        << name;
  }
}

}  // namespace
