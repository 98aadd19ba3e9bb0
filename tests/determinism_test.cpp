// Determinism regression tests: the same seed must yield bit-identical
// RNG streams and bit-identical simulation cost ledgers across runs.
// Guards the repo's core reproducibility contract (common/rng.hpp: "every
// randomized component receives an explicitly seeded generator so that
// experiments are bit-reproducible").
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "scenario/registry.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

TEST(Determinism, Xoshiro256SameSeedSameStream) {
  Xoshiro256 a(12345);
  Xoshiro256 b(12345);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "stream diverged at step " << i;
  }
}

TEST(Determinism, Xoshiro256DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Determinism, Xoshiro256BoundedDrawsReproducible) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.next_below(7), b.next_below(7));
    ASSERT_EQ(a.next_in(-5, 5), b.next_in(-5, 5));
    ASSERT_DOUBLE_EQ(a.next_double(), b.next_double());
  }
}

TEST(Determinism, Xoshiro256SplitReproducible) {
  Xoshiro256 parent_a(7), parent_b(7);
  Xoshiro256 child_a = parent_a.split(3);
  Xoshiro256 child_b = parent_b.split(3);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(child_a.next(), child_b.next());
  }
  // And the parents stay in lockstep after splitting.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(parent_a.next(), parent_b.next());
  }
}

TEST(Determinism, TraceGenerationReproducible) {
  Xoshiro256 rng_a(31), rng_b(31);
  const trace::Trace ta =
      trace::materialize(*trace::stream_zipf_pairs(32, 20000, 1.2, rng_a));
  const trace::Trace tb =
      trace::materialize(*trace::stream_zipf_pairs(32, 20000, 1.2, rng_b));
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].u, tb[i].u);
    ASSERT_EQ(ta[i].v, tb[i].v);
  }
}

// Cost ledgers from two runs must agree at every checkpoint (wall_seconds
// is the only field allowed to differ).
void expect_identical_ledgers(const sim::RunResult& x,
                              const sim::RunResult& y) {
  ASSERT_EQ(x.checkpoints.size(), y.checkpoints.size());
  for (std::size_t i = 0; i < x.checkpoints.size(); ++i) {
    const sim::Checkpoint& cx = x.checkpoints[i];
    const sim::Checkpoint& cy = y.checkpoints[i];
    EXPECT_EQ(cx.requests, cy.requests);
    EXPECT_EQ(cx.routing_cost, cy.routing_cost);
    EXPECT_EQ(cx.reconfig_cost, cy.reconfig_cost);
    EXPECT_EQ(cx.total_cost, cy.total_cost);
    EXPECT_EQ(cx.direct_serves, cy.direct_serves);
    EXPECT_EQ(cx.edge_adds, cy.edge_adds);
    EXPECT_EQ(cx.edge_removals, cy.edge_removals);
    EXPECT_EQ(cx.matching_size, cy.matching_size);
  }
}

TEST(Determinism, RunToCompletionSameSeedSameLedger) {
  const net::Topology topo = net::make_fat_tree(32);
  Xoshiro256 trace_rng(17);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(32, 30000, 1.1, trace_rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 4;
  inst.alpha = 20;

  RBma run1(inst, {.seed = 42});
  RBma run2(inst, {.seed = 42});
  const sim::RunResult r1 = sim::run_to_completion(run1, t);
  const sim::RunResult r2 = sim::run_to_completion(run2, t);
  expect_identical_ledgers(r1, r2);
  EXPECT_EQ(run1.special_requests(), run2.special_requests());
  EXPECT_EQ(run1.total_paging_faults(), run2.total_paging_faults());
}

TEST(Determinism, CheckpointedRunMatchesFinalLedger) {
  // Checkpoint snapshots must not perturb the run: a 10-point grid and a
  // single final checkpoint end at the same ledger.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 trace_rng(29);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(16, 10000, trace_rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 10;

  RBma a(inst, {.seed = 11}), b(inst, {.seed = 11});
  const sim::RunResult gridded =
      sim::run_simulation(a, t, sim::checkpoint_grid(t.size(), 10));
  const sim::RunResult single = sim::run_to_completion(b, t);
  EXPECT_EQ(gridded.final().total_cost, single.final().total_cost);
  EXPECT_EQ(gridded.final().routing_cost, single.final().routing_cost);
  EXPECT_EQ(gridded.final().edge_adds, single.final().edge_adds);
}

TEST(Determinism, FactoryBuiltMatchersReproducible) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 trace_rng(37);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 15000, 1.3, trace_rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 8;

  for (const char* name : {"r_bma", "bma", "greedy", "oblivious", "rotor"}) {
    auto m1 = scenario::make_algorithm(name, inst, &t, /*seed=*/5);
    auto m2 = scenario::make_algorithm(name, inst, &t, /*seed=*/5);
    const sim::RunResult r1 = sim::run_to_completion(*m1, t);
    const sim::RunResult r2 = sim::run_to_completion(*m2, t);
    EXPECT_EQ(r1.final().total_cost, r2.final().total_cost) << name;
    EXPECT_EQ(r1.final().routing_cost, r2.final().routing_cost) << name;
    EXPECT_EQ(r1.final().reconfig_cost, r2.final().reconfig_cost) << name;
  }
}

}  // namespace
