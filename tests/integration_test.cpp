// Integration tests: the full pipeline (topology -> workload -> algorithms
// -> simulator -> report) at reduced scale, asserting the qualitative
// orderings the paper's evaluation (§3.2) reports.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "trace/facebook_like.hpp"
#include "trace/microsoft_like.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::sim;

struct PipelineResult {
  std::uint64_t r_bma;
  std::uint64_t bma;
  std::uint64_t so_bma;
  std::uint64_t oblivious;
};

PipelineResult run_pipeline(const trace::Trace& t, std::size_t num_racks,
                            std::size_t b, std::uint64_t alpha) {
  const net::Topology topo = net::make_fat_tree(num_racks);
  ExperimentConfig config;
  config.distances = &topo.distances;
  config.alpha = alpha;
  config.checkpoints = 4;
  config.trials = 3;
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = b},
      {.algorithm = "bma", .b = b},
      {.algorithm = "so_bma", .b = b},
      {.algorithm = "oblivious", .b = b},
  };
  const auto results = run_experiment(config, t, specs);
  return {results[0].final().routing_cost, results[1].final().routing_cost,
          results[2].final().routing_cost, results[3].final().routing_cost};
}

TEST(Integration, FacebookDatabaseOrderings) {
  Xoshiro256 rng(100);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 40, 60000, rng));
  const PipelineResult r = run_pipeline(t, 40, 6, 30);

  // Demand-aware beats oblivious decisively on a skewed, bursty trace.
  EXPECT_LT(r.r_bma, r.oblivious);
  EXPECT_LT(r.bma, r.oblivious);
  EXPECT_LT(r.so_bma, r.oblivious);
  // R-BMA lands in the same quality band as BMA (paper: "almost the same
  // routing cost reduction"); allow 25% band at this reduced scale.
  EXPECT_LT(static_cast<double>(r.r_bma),
            1.25 * static_cast<double>(r.bma));
}

TEST(Integration, MicrosoftSoBmaWinsWithoutTemporalStructure) {
  // Fig 4c: on the i.i.d. Microsoft-style trace, the static offline
  // matching is clearly the best performer.
  Xoshiro256 rng(101);
  const trace::Trace t =
      trace::materialize(*trace::stream_microsoft_like(30, 120000, {}, rng));
  const PipelineResult r = run_pipeline(t, 30, 4, 30);
  EXPECT_LT(r.so_bma, r.r_bma);
  EXPECT_LT(r.so_bma, r.bma);
  EXPECT_LT(r.r_bma, r.oblivious);
}

TEST(Integration, LargerCacheSizeReducesRoutingCost) {
  // Figs 1a-4a: routing cost decreases in b.
  Xoshiro256 rng(102);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 40, 50000, rng));
  const net::Topology topo = net::make_fat_tree(40);
  ExperimentConfig config;
  config.distances = &topo.distances;
  config.alpha = 30;
  config.checkpoints = 2;
  config.trials = 3;
  std::uint64_t prev = ~0ull;
  for (std::size_t b : {2ul, 6ul, 12ul}) {
    const auto results = run_experiment(
        config, t, {{.algorithm = "r_bma", .b = b}});
    const std::uint64_t cost = results[0].final().routing_cost;
    EXPECT_LT(cost, prev) << "b=" << b;
    prev = cost;
  }
}

TEST(Integration, WebTraceGivesSmallerGainsThanDatabase) {
  // §3.2: the web-service cluster's flatter structure yields smaller
  // reductions than the database cluster at equal b.
  Xoshiro256 r1(103), r2(104);
  const std::size_t n = 40, b = 6;
  const trace::Trace db = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, n, 50000, r1));
  const trace::Trace web = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kWebService, n, 50000, r2));

  const PipelineResult rdb = run_pipeline(db, n, b, 30);
  const PipelineResult rweb = run_pipeline(web, n, b, 30);
  const double red_db =
      1.0 - static_cast<double>(rdb.r_bma) / static_cast<double>(rdb.oblivious);
  const double red_web = 1.0 - static_cast<double>(rweb.r_bma) /
                                   static_cast<double>(rweb.oblivious);
  EXPECT_GT(red_db, red_web);
}

TEST(Integration, AllAlgorithmsKeepFeasibleMatchingsOnEveryWorkload) {
  Xoshiro256 rng(105);
  const std::size_t n = 30;
  const net::Topology topo = net::make_fat_tree(n);
  core::Instance inst;
  inst.distances = &topo.distances;
  inst.b = 3;
  inst.alpha = 20;

  const std::vector<trace::Trace> workloads = {
      trace::materialize(*trace::stream_facebook_like(
          trace::FacebookCluster::kHadoop, n, 20000, rng.split(0))),
      trace::materialize(
          *trace::stream_microsoft_like(n, 20000, {}, rng.split(1))),
      trace::materialize(*trace::stream_uniform(n, 20000, rng.split(2))),
      trace::materialize(*trace::stream_round_robin_star(n, 20000, 5)),
  };
  for (const trace::Trace& t : workloads) {
    for (const char* algo : {"r_bma", "bma", "greedy", "so_bma"}) {
      auto matcher = scenario::make_algorithm(algo, inst, &t, 3);
      for (const core::Request& r : t) matcher->serve(r);
      EXPECT_TRUE(matcher->matching().check_invariants())
          << algo << " on " << t.name();
    }
  }
}

}  // namespace
