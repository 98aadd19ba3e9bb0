// Integration tests: the full pipeline (topology -> workload -> algorithms
// -> simulator -> report) at reduced scale, asserting the qualitative
// orderings the paper's evaluation (§3.2) reports.  The PaperClaims cases
// check the claims of the runs in bench/paper_experiments.txt, on the same
// scenarios at 50000 requests.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
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

/// `spec` through run_scenario at 50000 requests, with the spec's default
/// seed (each claim below also holds at 200000 requests).
scenario::ScenarioResult run_claim(const std::string& spec) {
  return scenario::run_scenario(
      scenario::ScenarioSpec::parse(spec + ";requests=50000"));
}

/// Final routing cost per column label ("r_bma(b=6)").
std::map<std::string, std::uint64_t> routing_costs(
    const scenario::ScenarioResult& result) {
  std::map<std::string, std::uint64_t> out;
  for (const RunResult& run : result.runs)
    out[run.algorithm] = run.final().routing_cost;
  return out;
}

std::string column(const std::string& algorithm, std::size_t b) {
  return algorithm + "(b=" + std::to_string(b) + ")";
}

// Figs 1a-4a and the best-of panels: R-BMA routes below Oblivious at every
// b, and at the largest b within BMA's band (§3.2: "almost the same"
// routing on the bursty Facebook traces; the i.i.d. Microsoft trace gives
// random marking evictions no temporal structure to exploit, so its band
// is wider).
TEST(PaperClaims, RBmaBeatsObliviousAndStaysInBmasBand) {
  const struct {
    const char* cell;
    double band;
  } figures[] = {
      {"workload=facebook_db;racks=100;b=6,12,18", 1.10},
      {"workload=facebook_web;racks=100;b=6,12,18", 1.10},
      {"workload=facebook_hadoop;racks=100;b=6,12,18", 1.10},
      {"workload=microsoft;racks=50;b=3,6,9", 1.15},
  };
  for (const auto& figure : figures) {
    const scenario::ScenarioResult result =
        run_claim(std::string(figure.cell) +
                  ";algorithms=r_bma,bma,oblivious;alpha=60");
    const std::vector<std::size_t>& bs = result.spec.cache_sizes;
    const auto costs = routing_costs(result);
    const std::uint64_t oblivious = costs.at(column("oblivious", bs.front()));
    for (const std::size_t b : bs)
      EXPECT_LT(costs.at(column("r_bma", b)), oblivious)
          << figure.cell << " b=" << b;
    EXPECT_LT(static_cast<double>(costs.at(column("r_bma", bs.back()))) /
                  static_cast<double>(costs.at(column("bma", bs.back()))),
              figure.band)
        << figure.cell;
  }
}

// The (b,a)-matching (§1.1): the further the offline comparator's degree a
// falls below the online degree b, the smaller the online/offline gap.
TEST(PaperClaims, AugmentationShrinksTheOnlineOfflineGap) {
  double previous = std::numeric_limits<double>::infinity();
  for (const int a : {12, 9, 6, 3, 1}) {
    const auto costs = routing_costs(
        run_claim("workload=microsoft;racks=50;b=12;trials=3;"
                  "algorithms=r_bma,so_bma;a=" +
                  std::to_string(a)));
    const double ratio = static_cast<double>(costs.at("r_bma(b=12)")) /
                         static_cast<double>(costs.at("so_bma(b=12)"));
    EXPECT_LT(ratio, previous) << "a=" << a;
    previous = ratio;
  }
}

// A shorter offline window follows drifting demand, so routing never rises
// as the window shrinks (so_bma is the one-window limit).  On the
// stationary i.i.d. Microsoft trace every reconfiguration is wasted, so
// the static matching has the least total cost.
TEST(PaperClaims, ShorterOfflineWindowsNeverRouteMore) {
  for (const char* cell : {"workload=facebook_hadoop;racks=100;b=12",
                           "workload=microsoft;racks=50;b=9"}) {
    const scenario::ScenarioResult result = run_claim(
        std::string(cell) +
        ";algorithms=so_bma,offline_dynamic:window=50000,"
        "offline_dynamic:window=10000,offline_dynamic:window=2000");
    const std::vector<RunResult>& runs = result.runs;  // longest first
    for (std::size_t i = 1; i < runs.size(); ++i)
      EXPECT_LE(runs[i].final().routing_cost,
                runs[i - 1].final().routing_cost)
          << cell << " " << runs[i].algorithm;
    if (result.spec.workload.name == "microsoft") {
      for (const RunResult& run : runs)
        EXPECT_LE(runs.front().final().total_cost, run.final().total_cost)
            << run.algorithm;
    }
  }
}

// §3.1: "network topologies with shorter paths would result in lower
// costs", and they leave less for reconfigurable links to save: R-BMA's
// reduction against Oblivious falls from the ring to the fat-tree to the
// leaf-spine.
TEST(PaperClaims, LongerFixedPathsLeaveMoreToSave) {
  double previous = 1.0;
  for (const char* topology : {"ring", "fat_tree", "leaf_spine"}) {
    const scenario::ScenarioResult result = run_claim(
        std::string("topology=") + topology +
        ";workload=facebook_db;racks=64;b=8;trials=3;"
        "algorithms=r_bma,oblivious");
    const auto costs = routing_costs(result);
    const double reduction =
        1.0 - static_cast<double>(costs.at("r_bma(b=8)")) /
                  static_cast<double>(costs.at("oblivious(b=8)"));
    EXPECT_LT(reduction, previous) << topology;
    previous = reduction;
  }
}

}  // namespace
