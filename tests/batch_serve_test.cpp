// Batch-split differential suite: every matcher has one serve path,
// OnlineBMatcher::serve_batch, and how a trace is split into batches must
// not move its ledger.  The chunked run_simulation (kServeChunk batches
// clipped at checkpoints) must equal a replay in one-request batches
// (serve()) — for every registered algorithm, across workload shapes and
// the full b range, at every checkpoint.  The same grid also audits each
// matcher's state after every kServeChunk chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "paging/factory.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "scalar_replay.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using rdcn::testing::make_instance;
using rdcn::testing::run_simulation_scalar;

void expect_identical_checkpoints(const sim::RunResult& scalar,
                                  const sim::RunResult& batched,
                                  const std::string& context) {
  ASSERT_EQ(scalar.checkpoints.size(), batched.checkpoints.size()) << context;
  for (std::size_t i = 0; i < scalar.checkpoints.size(); ++i) {
    const sim::Checkpoint& s = scalar.checkpoints[i];
    const sim::Checkpoint& b = batched.checkpoints[i];
    EXPECT_EQ(s.requests, b.requests) << context << " cp " << i;
    EXPECT_EQ(s.routing_cost, b.routing_cost) << context << " cp " << i;
    EXPECT_EQ(s.reconfig_cost, b.reconfig_cost) << context << " cp " << i;
    EXPECT_EQ(s.total_cost, b.total_cost) << context << " cp " << i;
    EXPECT_EQ(s.direct_serves, b.direct_serves) << context << " cp " << i;
    EXPECT_EQ(s.edge_adds, b.edge_adds) << context << " cp " << i;
    EXPECT_EQ(s.edge_removals, b.edge_removals) << context << " cp " << i;
    EXPECT_EQ(s.matching_size, b.matching_size) << context << " cp " << i;
  }
}

std::vector<trace::Trace> make_traces() {
  // FB/MS cluster profiles plus two synthetic extremes (no structure /
  // adversarial churn).  Sizes chosen so chunk boundaries (kServeChunk =
  // 4096) fall mid-trace.
  std::vector<trace::Trace> traces;
  constexpr std::size_t kRacks = 32;
  constexpr std::size_t kRequests = 10'000;
  {
    Xoshiro256 rng(101);
    traces.push_back(trace::materialize(*trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, kRacks, kRequests, rng)));
  }
  {
    Xoshiro256 rng(202);
    traces.push_back(trace::materialize(
        *trace::stream_microsoft_like(kRacks, kRequests, {}, rng)));
  }
  {
    Xoshiro256 rng(303);
    traces.push_back(trace::materialize(
        *trace::stream_uniform(kRacks, kRequests, rng)));
  }
  traces.push_back(trace::materialize(
      *trace::stream_round_robin_star(kRacks, kRequests, 6)));
  return traces;
}

TEST(BatchServe, EveryAlgorithmBitIdenticalToScalarAcrossB) {
  const net::Topology topo = net::make_fat_tree(32);
  const std::vector<trace::Trace> traces = make_traces();
  const std::vector<std::string> algorithms =
      scenario::AlgorithmRegistry::instance().names();
  ASSERT_GE(algorithms.size(), 7u);  // the full built-in portfolio

  for (const trace::Trace& t : traces) {
    for (const std::string& algorithm : algorithms) {
      for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
        const core::Instance inst = make_instance(topo.distances, b, 30);
        const std::vector<std::uint64_t> grid =
            sim::checkpoint_grid(t.size(), 7);
        auto scalar_alg = scenario::make_algorithm(algorithm, inst, &t, 9);
        const sim::RunResult scalar =
            run_simulation_scalar(*scalar_alg, t, grid);
        auto batched_alg = scenario::make_algorithm(algorithm, inst, &t, 9);
        const sim::RunResult batched =
            sim::run_simulation(*batched_alg, t, grid);
        expect_identical_checkpoints(
            scalar, batched,
            t.name() + "/" + algorithm + "/b=" + std::to_string(b));
      }
    }
  }
}

TEST(BatchServe, ChunkAuditHoldsForEveryAlgorithm) {
  // After every kServeChunk chunk: the matching is consistent and within
  // its degree bound, the ledger books α per edge operation, the total
  // never decreases, every r_bma variant keeps the Theorem 2
  // intersection invariant, and BMA's rack rows mirror the matching with
  // equal usage at both endpoints of every edge.
  const net::Topology topo = net::make_fat_tree(32);
  const std::vector<trace::Trace> traces = make_traces();
  std::vector<std::string> specs =
      scenario::AlgorithmRegistry::instance().names();
  specs.push_back("r_bma:eager=true");
  for (const std::string& engine : paging::engine_names())
    specs.push_back("r_bma:engine=" + engine);
  constexpr std::uint64_t kAlpha = 30;

  for (const trace::Trace& t : traces) {
    const std::span<const core::Request> all(t.data(), t.size());
    for (const std::string& spec : specs) {
      for (const std::size_t b : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
        SCOPED_TRACE(t.name() + "/" + spec + "/b=" + std::to_string(b));
        const core::Instance inst = make_instance(topo.distances, b, kAlpha);
        auto alg = scenario::make_algorithm(spec, inst, &t, 9);
        const auto* r_bma = dynamic_cast<const core::RBma*>(alg.get());
        ASSERT_EQ(r_bma != nullptr, spec.starts_with("r_bma"));
        const auto* bma = dynamic_cast<const core::Bma*>(alg.get());
        ASSERT_EQ(bma != nullptr, spec == "bma");
        std::uint64_t last_total = 0;
        for (std::size_t i = 0; i < all.size(); i += sim::kServeChunk) {
          const std::size_t n = std::min(sim::kServeChunk, all.size() - i);
          alg->serve_batch(std::span<const core::Request>(all.data() + i, n));
          SCOPED_TRACE("after request " + std::to_string(i + n));
          const core::BMatching& m = alg->matching();
          ASSERT_TRUE(m.check_invariants());
          for (core::Rack w = 0; w < m.num_racks(); ++w) {
            ASSERT_LE(m.degree(w), b) << "rack " << w;
          }
          const core::CostStats& c = alg->costs();
          ASSERT_EQ(c.reconfig_cost,
                    kAlpha * (c.edge_adds + c.edge_removals));
          ASSERT_GE(c.total_cost(), last_total);
          last_total = c.total_cost();
          if (r_bma != nullptr) {
            ASSERT_TRUE(r_bma->check_intersection_invariant());
          }
          if (bma != nullptr) {
            ASSERT_TRUE(bma->check_rows());
          }
        }
      }
    }
  }
}

TEST(BatchServe, DirectServeBatchCallMatchesServeLoop) {
  // serve_batch on raw spans of uneven sizes (no simulator) equals a
  // replay in one-request batches.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(7);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 5000, 1.1, rng));
  const std::span<const core::Request> all(t.data(), t.size());

  for (const char* algorithm : {"bma", "r_bma", "greedy", "oblivious",
                                "so_bma", "rotor"}) {
    const core::Instance inst = make_instance(topo.distances, 3, 25);
    auto a = scenario::make_algorithm(algorithm, inst, &t, 3);
    for (const core::Request& r : t) a->serve(r);
    auto b = scenario::make_algorithm(algorithm, inst, &t, 3);
    // Uneven batch sizes, including empty and single-request batches.
    std::size_t i = 0;
    for (const std::size_t n : {std::size_t{1}, std::size_t{0},
                                std::size_t{777}, std::size_t{1},
                                std::size_t{2048}}) {
      b->serve_batch(std::span<const core::Request>(all.data() + i, n));
      i += n;
    }
    b->serve_batch(
        std::span<const core::Request>(all.data() + i, all.size() - i));
    EXPECT_EQ(a->costs().routing_cost, b->costs().routing_cost) << algorithm;
    EXPECT_EQ(a->costs().reconfig_cost, b->costs().reconfig_cost)
        << algorithm;
    EXPECT_EQ(a->costs().requests, b->costs().requests) << algorithm;
    EXPECT_EQ(a->costs().direct_serves, b->costs().direct_serves)
        << algorithm;
    EXPECT_EQ(a->costs().edge_adds, b->costs().edge_adds) << algorithm;
    EXPECT_EQ(a->costs().edge_removals, b->costs().edge_removals)
        << algorithm;
    EXPECT_EQ(a->matching().size(), b->matching().size()) << algorithm;
  }
}

TEST(BatchServe, RotorSlotBoundariesStraddleBatchBoundaries) {
  // rotor's devirtualized override walks the batch in slot-sized runs;
  // slot lengths coprime to the batch splits below force runs to straddle
  // batch boundaries and batch boundaries to fall mid-slot (including the
  // degenerate slot=1 "install after every request" extreme).
  const net::Topology topo = net::make_fat_tree(24);
  Xoshiro256 rng(31);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(24, 11'000, 1.2, rng));
  const std::span<const core::Request> all(t.data(), t.size());
  for (const char* spec : {"rotor:slot=1", "rotor:slot=97",
                           "rotor:slot=100000", "rotor:slot=97,staggered=false"}) {
    const core::Instance inst = make_instance(topo.distances, 5, 30);
    auto scalar = scenario::make_algorithm(spec, inst, &t, 3);
    for (const core::Request& r : t) scalar->serve(r);
    auto batched = scenario::make_algorithm(spec, inst, &t, 3);
    std::size_t i = 0;
    for (const std::size_t n :
         {std::size_t{96}, std::size_t{1}, std::size_t{4096},
          std::size_t{97}, std::size_t{3000}}) {
      batched->serve_batch(
          std::span<const core::Request>(all.data() + i, n));
      i += n;
    }
    batched->serve_batch(
        std::span<const core::Request>(all.data() + i, all.size() - i));
    EXPECT_EQ(scalar->costs().routing_cost, batched->costs().routing_cost)
        << spec;
    EXPECT_EQ(scalar->costs().direct_serves, batched->costs().direct_serves)
        << spec;
    EXPECT_EQ(scalar->costs().prescheduled_ops,
              batched->costs().prescheduled_ops)
        << spec;
    EXPECT_EQ(scalar->matching().size(), batched->matching().size()) << spec;
  }
}

TEST(BatchServe, OfflineDynamicWindowBoundariesStraddleBatchBoundaries) {
  // Same shape for offline_dynamic: window lengths coprime to the serve
  // chunking so plan switches land mid-batch and batches span epochs.
  const net::Topology topo = net::make_fat_tree(24);
  Xoshiro256 rng(41);
  const trace::Trace t =
      trace::materialize(*trace::stream_flow_pool(24, 11'000, {}, rng));
  for (const char* spec :
       {"offline_dynamic:window=1", "offline_dynamic:window=113",
        "offline_dynamic:window=4096", "offline_dynamic:window=100000"}) {
    const core::Instance inst = make_instance(topo.distances, 4, 30);
    const std::vector<std::uint64_t> grid = sim::checkpoint_grid(t.size(), 5);
    auto scalar_alg = scenario::make_algorithm(spec, inst, &t, 5);
    const sim::RunResult scalar =
        run_simulation_scalar(*scalar_alg, t, grid);
    auto batched_alg = scenario::make_algorithm(spec, inst, &t, 5);
    const sim::RunResult batched = sim::run_simulation(*batched_alg, t, grid);
    expect_identical_checkpoints(scalar, batched, spec);
  }
}

}  // namespace
