// Cost-ledger identity tests (§1.1 cost model): for every algorithm and
// every run,
//     total_cost    = routing_cost + reconfig_cost
//     reconfig_cost = α · (edge_adds + edge_removals)      [demand-aware]
// with edge cases the figures never exercise: the empty trace, a single
// request, b = 1, and α = 0 (free reconfiguration).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

// Demand-aware algorithms whose every matching mutation is charged α.
// ("rotor" is excluded: its pre-scheduled rotations are deliberately not
// charged — see OnlineBMatcher::add_matching_edge_prescheduled.)
const std::vector<std::string> kChargedAlgorithms = {"r_bma", "bma", "greedy",
                                                     "oblivious"};

void expect_ledger_identity(const OnlineBMatcher& m) {
  const CostStats& c = m.costs();
  EXPECT_EQ(c.total_cost(), c.routing_cost + c.reconfig_cost);
  EXPECT_EQ(c.reconfig_cost,
            m.instance().alpha * (c.edge_adds + c.edge_removals));
  EXPECT_LE(c.direct_serves, c.requests);
}

void run_and_check(const Instance& inst, const trace::Trace& t) {
  for (const std::string& name : kChargedAlgorithms) {
    auto alg = scenario::make_algorithm(name, inst, &t, /*seed=*/3);
    const sim::RunResult r = sim::run_to_completion(*alg, t);
    expect_ledger_identity(*alg);
    // The final checkpoint mirrors the live ledger exactly.
    const sim::Checkpoint& fin = r.final();
    EXPECT_EQ(fin.requests, t.size()) << name;
    EXPECT_EQ(fin.total_cost, alg->costs().total_cost()) << name;
    EXPECT_EQ(fin.routing_cost, alg->costs().routing_cost) << name;
    EXPECT_EQ(fin.reconfig_cost, alg->costs().reconfig_cost) << name;
  }
}

TEST(CostLedger, EmptyTrace) {
  const net::Topology topo = net::make_fat_tree(8);
  const trace::Trace t(8, "empty");
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 7;

  for (const std::string& name : kChargedAlgorithms) {
    auto alg = scenario::make_algorithm(name, inst, &t, /*seed=*/3);
    const sim::RunResult r = sim::run_to_completion(*alg, t);
    expect_ledger_identity(*alg);
    ASSERT_EQ(r.checkpoints.size(), 1u) << name;
    EXPECT_EQ(r.final().requests, 0u) << name;
    EXPECT_EQ(r.final().total_cost, 0u) << name;
    EXPECT_EQ(r.final().matching_size, 0u) << name;
  }
}

TEST(CostLedger, SingleRequest) {
  const net::Topology topo = net::make_fat_tree(8);
  trace::Trace t(8, "one");
  t.push_back(Request::make(1, 5));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 7;
  run_and_check(inst, t);

  // The first request can never be a direct serve (matching starts empty),
  // so routing pays the fixed-network distance.
  auto alg = scenario::make_algorithm("bma", inst, &t);
  sim::run_to_completion(*alg, t);
  EXPECT_EQ(alg->costs().direct_serves, 0u);
  EXPECT_GE(alg->costs().routing_cost, topo.distances(1, 5));
}

TEST(CostLedger, DegreeBoundOne) {
  // b = 1: plain matching; heavy churn on a star workload stresses the
  // eviction paths of every algorithm.
  const net::Topology topo = net::make_star(10);
  const trace::Trace t =
      trace::materialize(*trace::stream_round_robin_star(10, 5000, 3));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 1;
  inst.alpha = 4;
  run_and_check(inst, t);
}

TEST(CostLedger, AlphaZero) {
  // α = 0: reconfiguration is free, so reconfig_cost must stay exactly 0
  // no matter how many edges are flipped, and total == routing.
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(43);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(12, 8000, 1.2, rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 0;

  for (const std::string& name : kChargedAlgorithms) {
    auto alg = scenario::make_algorithm(name, inst, &t, /*seed=*/3);
    sim::run_to_completion(*alg, t);
    expect_ledger_identity(*alg);
    EXPECT_EQ(alg->costs().reconfig_cost, 0u) << name;
    EXPECT_EQ(alg->costs().total_cost(), alg->costs().routing_cost) << name;
  }
}

TEST(CostLedger, AlphaZeroSingleRequestAndB1Combined) {
  // All edge cases at once: one request, b = 1, α = 0.
  const net::Topology topo = net::make_line(4);
  trace::Trace t(4, "tiny");
  t.push_back(Request::make(0, 3));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 1;
  inst.alpha = 0;
  run_and_check(inst, t);
}

TEST(CostLedger, RotorPreScheduledOpsAreNotCharged) {
  // The demand-oblivious rotor reconfigures on its hardware duty cycle;
  // those ops are counted but cost no α.
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(47);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 4000, rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 9;

  auto rotor = scenario::make_algorithm("rotor", inst, &t, /*seed=*/3);
  sim::run_to_completion(*rotor, t);
  const CostStats& c = rotor->costs();
  EXPECT_EQ(c.total_cost(), c.routing_cost + c.reconfig_cost);
  EXPECT_GT(c.prescheduled_ops, 0u);
  // Any charged mutation would have to come through the charging mutators.
  EXPECT_EQ(c.reconfig_cost, inst.alpha * (c.edge_adds + c.edge_removals));
}

TEST(CostLedger, ChargedOpsMatchLedgerUnderChurn) {
  // Long mixed workload: the identity holds at every checkpoint, not just
  // at the end (cumulative fields are monotone).
  const net::Topology topo = net::make_leaf_spine(16, 4);
  Xoshiro256 rng(53);
  const trace::Trace t =
      trace::materialize(*trace::stream_hotspot(16, 20000, 0.25, 0.6, rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 3;
  inst.alpha = 11;

  RBma alg(inst, {.seed = 13});
  const sim::RunResult r =
      sim::run_simulation(alg, t, sim::checkpoint_grid(t.size(), 20));
  std::uint64_t prev_total = 0;
  for (const sim::Checkpoint& c : r.checkpoints) {
    EXPECT_EQ(c.total_cost, c.routing_cost + c.reconfig_cost);
    EXPECT_EQ(c.reconfig_cost, inst.alpha * (c.edge_adds + c.edge_removals));
    EXPECT_GE(c.total_cost, prev_total);
    prev_total = c.total_cost;
  }
}

}  // namespace
