// Tests for the simulation engine (sim/simulator.hpp, sim/metrics.hpp).
#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "trace/shared_trace.hpp"
#include "trace/trace_stream.hpp"
#include "scalar_replay.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::sim;

using rdcn::testing::make_instance;
using rdcn::testing::run_simulation_scalar;

TEST(RunSimulation, EmptyTraceYieldsZeroLedger) {
  const net::Topology topo = net::make_fat_tree(8);
  const trace::Trace t(8, "empty");
  auto alg = scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  const RunResult r = run_to_completion(*alg, t);
  ASSERT_EQ(r.checkpoints.size(), 1u);
  EXPECT_EQ(r.final().requests, 0u);
  EXPECT_EQ(r.final().total_cost, 0u);
  EXPECT_EQ(r.final().matching_size, 0u);
}

TEST(RunSimulation, CheckpointAtZeroSnapshotsPreTraceState) {
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 100, rng));
  auto alg = scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  const RunResult r = run_simulation(*alg, t, {0, t.size()});
  ASSERT_EQ(r.checkpoints.size(), 2u);
  EXPECT_EQ(r.checkpoints[0].requests, 0u);
  EXPECT_EQ(r.checkpoints[0].total_cost, 0u);
  EXPECT_EQ(r.checkpoints[1].requests, t.size());
  EXPECT_GT(r.checkpoints[1].total_cost, 0u);
}

TEST(RunSimulation, GridEndingAtZeroServesNothing) {
  // The grid bounds the run: once every checkpoint is emitted, no further
  // request may mutate the matcher.
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 100, rng));
  auto alg = scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  const RunResult r = run_simulation(*alg, t, {0});
  ASSERT_EQ(r.checkpoints.size(), 1u);
  EXPECT_EQ(r.final().requests, 0u);
  EXPECT_EQ(alg->costs().requests, 0u);
  EXPECT_EQ(alg->costs().total_cost(), 0u);
}

TEST(CheckpointGrid, EvenAndEndsAtTotal) {
  const auto g = checkpoint_grid(1000, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g[0], 250u);
  EXPECT_EQ(g[1], 500u);
  EXPECT_EQ(g[2], 750u);
  EXPECT_EQ(g[3], 1000u);
}

TEST(CheckpointGrid, RoundingNeverSkipsTheEnd) {
  const auto g = checkpoint_grid(10, 3);
  EXPECT_EQ(g.back(), 10u);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
}

TEST(Simulator, CheckpointsAreCumulativeAndMonotone) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(1);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 8000, 1.0, rng));
  auto matcher = scenario::make_algorithm("r_bma", make_instance(topo.distances, 3, 8),
                                    &t, 5);
  const RunResult r = run_simulation(*matcher, t, checkpoint_grid(t.size(), 8));
  ASSERT_EQ(r.checkpoints.size(), 8u);
  for (std::size_t i = 1; i < 8; ++i) {
    const Checkpoint& prev = r.checkpoints[i - 1];
    const Checkpoint& cur = r.checkpoints[i];
    EXPECT_GT(cur.requests, prev.requests);
    EXPECT_GE(cur.routing_cost, prev.routing_cost);
    EXPECT_GE(cur.reconfig_cost, prev.reconfig_cost);
    EXPECT_GE(cur.wall_seconds, prev.wall_seconds);
    EXPECT_EQ(cur.total_cost, cur.routing_cost + cur.reconfig_cost);
  }
  EXPECT_EQ(r.final().requests, t.size());
}

TEST(Simulator, MatchesManualServeLoop) {
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(2);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 3000, rng));
  const core::Instance inst = make_instance(topo.distances, 2, 6);

  auto a = scenario::make_algorithm("bma", inst, &t, 1);
  const RunResult r = run_to_completion(*a, t);

  auto b = scenario::make_algorithm("bma", inst, &t, 1);
  for (const core::Request& req : t) b->serve(req);

  EXPECT_EQ(r.final().routing_cost, b->costs().routing_cost);
  EXPECT_EQ(r.final().reconfig_cost, b->costs().reconfig_cost);
  EXPECT_EQ(r.final().matching_size, b->matching().size());
}

TEST(Simulator, ObliviousCostIsSumOfDistances) {
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 2000, rng));
  auto matcher =
      scenario::make_algorithm("oblivious", make_instance(topo.distances, 2, 6), &t, 1);
  const RunResult r = run_to_completion(*matcher, t);
  std::uint64_t expected = 0;
  for (const core::Request& req : t) expected += topo.distances(req.u, req.v);
  EXPECT_EQ(r.final().routing_cost, expected);
  EXPECT_EQ(r.final().reconfig_cost, 0u);
}

// Chunked replay must clip chunks at checkpoint boundaries: a grid point
// landing anywhere inside a chunk — including adjacent points inside the
// SAME chunk and points straddling chunk edges — snapshots exactly the
// ledger the one-request replay snapshots there.
TEST(Simulator, CheckpointInsideChunkMatchesScalarAtEveryGridPoint) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(51);
  // Longer than two chunks so interior, boundary, and straddling cases all
  // occur (kServeChunk = 4096).
  const trace::Trace t = trace::materialize(
      *trace::stream_zipf_pairs(16, 2 * sim::kServeChunk + 1234, 1.1, rng));
  const std::vector<std::uint64_t> grid = {
      1,
      2,                      // adjacent points within the first chunk
      sim::kServeChunk - 1,   // just before a chunk boundary
      sim::kServeChunk,       // exactly on it
      sim::kServeChunk + 1,   // just after it
      sim::kServeChunk + 1,   // duplicate grid point
      2 * sim::kServeChunk + 513,
      t.size()};

  for (const char* algorithm : {"bma", "r_bma", "greedy"}) {
    const core::Instance inst = make_instance(topo.distances, 3, 25);
    auto scalar_alg = scenario::make_algorithm(algorithm, inst, &t, 6);
    const RunResult scalar = run_simulation_scalar(*scalar_alg, t, grid);
    auto batched_alg = scenario::make_algorithm(algorithm, inst, &t, 6);
    const RunResult batched = run_simulation(*batched_alg, t, grid);
    ASSERT_EQ(scalar.checkpoints.size(), batched.checkpoints.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Checkpoint& s = scalar.checkpoints[i];
      const Checkpoint& b = batched.checkpoints[i];
      EXPECT_EQ(s.requests, b.requests) << algorithm << " cp " << i;
      EXPECT_EQ(s.routing_cost, b.routing_cost) << algorithm << " cp " << i;
      EXPECT_EQ(s.reconfig_cost, b.reconfig_cost) << algorithm << " cp " << i;
      EXPECT_EQ(s.direct_serves, b.direct_serves) << algorithm << " cp " << i;
      EXPECT_EQ(s.edge_adds, b.edge_adds) << algorithm << " cp " << i;
      EXPECT_EQ(s.edge_removals, b.edge_removals) << algorithm << " cp " << i;
      EXPECT_EQ(s.matching_size, b.matching_size) << algorithm << " cp " << i;
    }
  }
}

TEST(Simulator, DenseGridForcesSubChunkClipping) {
  // A grid denser than the chunk size degenerates every chunk to the gap
  // between checkpoints; the run must still visit each point exactly once
  // and serve nothing beyond the last.
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(52);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 300, rng));
  std::vector<std::uint64_t> grid;
  for (std::uint64_t cp = 0; cp <= 250; cp += 10) grid.push_back(cp);

  const core::Instance inst = make_instance(topo.distances, 2, 10);
  auto scalar_alg = scenario::make_algorithm("bma", inst, &t, 1);
  const RunResult scalar = run_simulation_scalar(*scalar_alg, t, grid);
  auto batched_alg = scenario::make_algorithm("bma", inst, &t, 1);
  const RunResult batched = run_simulation(*batched_alg, t, grid);
  ASSERT_EQ(scalar.checkpoints.size(), grid.size());
  ASSERT_EQ(batched.checkpoints.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(scalar.checkpoints[i].requests, batched.checkpoints[i].requests);
    EXPECT_EQ(scalar.checkpoints[i].total_cost,
              batched.checkpoints[i].total_cost);
  }
  // The grid bounds the run in both modes.
  EXPECT_EQ(scalar_alg->costs().requests, 250u);
  EXPECT_EQ(batched_alg->costs().requests, 250u);
}

TEST(Metrics, AverageRunsIsExactForIdenticalRuns) {
  const net::Topology topo = net::make_fat_tree(12);
  Xoshiro256 rng(4);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(12, 2000, rng));
  const core::Instance inst = make_instance(topo.distances, 2, 6);
  auto m1 = scenario::make_algorithm("bma", inst, &t, 1);
  auto m2 = scenario::make_algorithm("bma", inst, &t, 1);
  const RunResult r1 = run_simulation(*m1, t, checkpoint_grid(t.size(), 4));
  const RunResult r2 = run_simulation(*m2, t, checkpoint_grid(t.size(), 4));
  const RunResult avg = average_runs({r1, r2});
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(avg.checkpoints[p].routing_cost,
              r1.checkpoints[p].routing_cost);
    EXPECT_EQ(avg.checkpoints[p].total_cost, r1.checkpoints[p].total_cost);
  }
}

TEST(RunControl, CancelStopsAtNextChunkBoundary) {
  // Cancel fired from the first checkpoint's hook (one serve chunk in):
  // the run must throw CancelledError without serving the remaining two
  // chunks — the matcher's ledger stops exactly at the boundary.
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(11);
  const trace::Trace t = trace::materialize(
      *trace::stream_uniform(8, 3 * kServeChunk, rng));  // 3 full chunks
  auto alg =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  RunControl control;
  control.cancel = rdcn::CancelToken::make();
  control.on_checkpoint = [&](const Checkpoint& c) {
    if (c.requests == kServeChunk) control.cancel.request_cancel();
  };
  EXPECT_THROW(
      run_simulation(*alg, t, {kServeChunk, 3 * kServeChunk}, control),
      rdcn::CancelledError);
  EXPECT_EQ(alg->costs().requests, kServeChunk);
}

TEST(RunControl, CancelStopsStreamedRunToo) {
  // The same over a trace produced while it is served, one block kept.
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(12);
  const auto stream = trace::stream_uniform(8, 3 * kServeChunk, rng);
  trace::SharedTrace streamed(*stream, trace::SharedTrace::Keep::kOneBlock);
  auto alg =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  RunControl control;
  control.cancel = rdcn::CancelToken::make();
  control.on_checkpoint = [&](const Checkpoint&) {
    control.cancel.request_cancel();
  };
  EXPECT_THROW(
      run_simulation(*alg, streamed, {kServeChunk, 3 * kServeChunk}, control),
      rdcn::CancelledError);
  EXPECT_EQ(alg->costs().requests, kServeChunk);
}

TEST(RunControl, PreCancelledRunServesNothing) {
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(13);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 100, rng));
  auto alg =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  RunControl control;
  control.cancel = rdcn::CancelToken::make();
  control.cancel.request_cancel();
  EXPECT_THROW(run_simulation(*alg, t, {t.size()}, control),
               rdcn::CancelledError);
  EXPECT_EQ(alg->costs().requests, 0u);
}

TEST(RunControl, OnCheckpointStreamsTheLedgerInGridOrder) {
  // The hook must see exactly the checkpoints the RunResult reports, in
  // order, with the clock paused (wall time already accounted).
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(14);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 1000, rng));
  auto alg =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  std::vector<Checkpoint> streamed;
  RunControl control;
  control.on_checkpoint = [&](const Checkpoint& c) {
    streamed.push_back(c);
  };
  const RunResult r = run_simulation(*alg, t, {250, 500, 1000}, control);
  ASSERT_EQ(streamed.size(), r.checkpoints.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].requests, r.checkpoints[i].requests);
    EXPECT_EQ(streamed[i].total_cost, r.checkpoints[i].total_cost);
  }
}

TEST(RunControl, InertDefaultRunsToCompletion) {
  // The default RunControl must not change behaviour: same ledger as a
  // run without one.
  const net::Topology topo = net::make_fat_tree(8);
  Xoshiro256 rng(15);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 1000, rng));
  auto a =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  auto b =
      scenario::make_algorithm("bma", make_instance(topo.distances, 2, 5));
  const RunResult plain = run_simulation(*a, t, {500, 1000});
  const RunResult controlled =
      run_simulation(*b, t, {500, 1000}, RunControl{});
  ASSERT_EQ(plain.checkpoints.size(), controlled.checkpoints.size());
  for (std::size_t i = 0; i < plain.checkpoints.size(); ++i)
    EXPECT_EQ(plain.checkpoints[i].total_cost,
              controlled.checkpoints[i].total_cost);
}

TEST(Metrics, AverageRunsMeansDifferentSeeds) {
  RunResult a, b;
  a.algorithm = b.algorithm = "x";
  Checkpoint ca, cb;
  ca.requests = cb.requests = 100;
  ca.routing_cost = 10;
  cb.routing_cost = 20;
  ca.total_cost = 10;
  cb.total_cost = 20;
  a.checkpoints = {ca};
  b.checkpoints = {cb};
  const RunResult avg = average_runs({a, b});
  EXPECT_EQ(avg.checkpoints[0].routing_cost, 15u);
}

}  // namespace
