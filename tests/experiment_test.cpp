// Tests for the experiment driver (sim/experiment.hpp) and the parallel
// runner (sim/parallel_runner.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::sim;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  int sum = 0;
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, ZeroTasksIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL(); }, 4);
}

class ExperimentFixture : public ::testing::Test {
 protected:
  ExperimentFixture()
      : topo_(net::make_fat_tree(16)),
        trace_(trace::materialize(
            *trace::stream_zipf_pairs(16, 6000, 1.0, Xoshiro256(3)))) {
    config_.distances = &topo_.distances;
    config_.alpha = 8;
    config_.checkpoints = 4;
    config_.trials = 3;
    config_.base_seed = 7;
  }

  net::Topology topo_;
  trace::Trace trace_;
  ExperimentConfig config_;
};

TEST_F(ExperimentFixture, ProducesOneResultPerSpecInOrder) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2},
      {.algorithm = "bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  const auto results = run_experiment(config_, trace_, specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].algorithm, "r_bma(b=2)");
  EXPECT_EQ(results[1].algorithm, "bma(b=2)");
  EXPECT_EQ(results[2].algorithm, "oblivious(b=2)");
  for (const auto& r : results)
    EXPECT_EQ(r.checkpoints.size(), config_.checkpoints);
}

/// The experiment replayed without run_experiment: one trial after another
/// in (spec, trial) order on this thread, then averaged.
std::vector<RunResult> replay_in_spec_order(
    const ExperimentConfig& config, const trace::Trace& trace,
    const std::vector<ExperimentSpec>& specs) {
  const std::vector<std::uint64_t> grid =
      checkpoint_grid(trace.size(), config.checkpoints);
  std::vector<RunResult> out;
  for (const ExperimentSpec& spec : specs) {
    core::Instance instance;
    instance.distances = config.distances;
    instance.b = spec.b;
    instance.a = config.a;
    instance.alpha = config.alpha;
    std::vector<RunResult> trials;
    const std::size_t reps = is_randomized(spec.algorithm) ? config.trials : 1;
    for (std::size_t t = 0; t < reps; ++t) {
      const auto matcher = scenario::AlgorithmRegistry::instance().make(
          {spec.algorithm, spec.params}, instance, &trace,
          config.base_seed + t);
      trials.push_back(run_simulation(*matcher, trace, grid));
    }
    out.push_back(average_runs(trials));
    out.back().algorithm = spec.display();
  }
  return out;
}

/// write_csv of every result metric (wall time is a measurement, not a
/// result).
std::string csv_bytes(const std::vector<RunResult>& runs) {
  std::ostringstream csv;
  for (const std::string& name : metric_names())
    if (name != metric_name(Metric::kWallSeconds))
      write_csv(csv, runs, parse_metric(name));
  return csv.str();
}

TEST_F(ExperimentFixture, ThreadCountDoesNotChangeCosts) {
  // Every registered algorithm (all of them run on a materialized trace):
  // dispatch order and thread count move wall time, never results.
  std::vector<ExperimentSpec> specs;
  for (const std::string& algorithm :
       scenario::AlgorithmRegistry::instance().names())
    for (const std::size_t b : {1u, 4u, 64u})
      specs.push_back({.algorithm = algorithm, .b = b});
  config_.trials = 3;
  const std::vector<RunResult> expected =
      replay_in_spec_order(config_, trace_, specs);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config_.threads = threads;
    const std::vector<RunResult> runs = run_experiment(config_, trace_, specs);
    EXPECT_EQ(csv_bytes(runs), csv_bytes(expected));
    ASSERT_EQ(runs.size(), expected.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(expected[i].algorithm);
      ASSERT_EQ(runs[i].checkpoints.size(), expected[i].checkpoints.size());
      for (std::size_t p = 0; p < runs[i].checkpoints.size(); ++p) {
        const Checkpoint& got = runs[i].checkpoints[p];
        const Checkpoint& want = expected[i].checkpoints[p];
        EXPECT_EQ(got.requests, want.requests);
        EXPECT_EQ(got.routing_cost, want.routing_cost);
        EXPECT_EQ(got.reconfig_cost, want.reconfig_cost);
        EXPECT_EQ(got.total_cost, want.total_cost);
        EXPECT_EQ(got.direct_serves, want.direct_serves);
        EXPECT_EQ(got.edge_adds, want.edge_adds);
        EXPECT_EQ(got.edge_removals, want.edge_removals);
        EXPECT_EQ(got.matching_size, want.matching_size);
      }
    }
  }
}

TEST(DispatchOrder, LongestFirstWithTiesInSpecTrialOrder) {
  // The column set of the replay_1m benchmark cell (the paper's Fig. 1
  // portfolio at b = 4 and 64): 17 tasks.
  const scenario::AlgorithmRegistry& registry =
      scenario::AlgorithmRegistry::instance();
  std::vector<ExperimentSpec> specs;
  for (const char* algorithm :
       {"r_bma", "bma", "so_bma", "greedy", "oblivious"})
    for (const std::size_t b : {4u, 64u}) {
      specs.push_back({.algorithm = algorithm, .b = b});
      if (registry.at(algorithm).b_independent) break;
    }
  const std::vector<ExperimentTask> order =
      dispatch_order(specs, 5, 1'000'000);
  ASSERT_EQ(order.size(), 17u);

  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ExperimentSpec& spec = specs[order[i].spec];
    EXPECT_EQ(order[i].cost, registry.at(spec.algorithm)
                                 .task_cost(spec.b, 1'000'000));
    EXPECT_TRUE(seen.insert({order[i].spec, order[i].trial}).second);
    if (i == 0) continue;
    EXPECT_GE(order[i - 1].cost, order[i].cost) << "position " << i;
    if (order[i - 1].cost == order[i].cost) {
      EXPECT_LT(std::make_pair(order[i - 1].spec, order[i - 1].trial),
                std::make_pair(order[i].spec, order[i].trial))
          << "position " << i;
    }
  }

  // bma at b=64 is the longest task (≈135 ms against ≈45 ms per r_bma
  // trial): both bma tasks go out before any r_bma trial.
  EXPECT_EQ(specs[order[0].spec].algorithm, "bma");
  EXPECT_EQ(specs[order[0].spec].b, 64u);
  std::size_t last_bma = 0;
  std::size_t first_r_bma = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::string& algorithm = specs[order[i].spec].algorithm;
    if (algorithm == "bma") last_bma = i;
    if (algorithm == "r_bma") first_r_bma = std::min(first_r_bma, i);
  }
  EXPECT_LT(last_bma, first_r_bma);
}

TEST_F(ExperimentFixture, CustomLabelIsUsed) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2, .label = "mine"},
  };
  const auto results = run_experiment(config_, trace_, specs);
  EXPECT_EQ(results[0].algorithm, "mine");
}

TEST_F(ExperimentFixture, PreCancelledConfigThrowsCancelledError) {
  // Cancellation is not a spec problem: it must surface as CancelledError
  // (distinct from SpecError) so serving layers can report "cancelled"
  // rather than "failed".
  config_.cancel = CancelToken::make();
  config_.cancel.request_cancel();
  const std::vector<ExperimentSpec> specs = {{.algorithm = "bma", .b = 2}};
  EXPECT_THROW(run_experiment(config_, trace_, specs), CancelledError);
}

TEST_F(ExperimentFixture, ZeroTrialsOfARandomizedAlgorithmIsASpecError) {
  config_.trials = 0;
  const std::vector<ExperimentSpec> randomized = {{.algorithm = "r_bma"}};
  EXPECT_THROW(run_experiment(config_, trace_, randomized), SpecError);
  // Deterministic algorithms run once whatever `trials` says.
  const std::vector<ExperimentSpec> deterministic = {{.algorithm = "bma"}};
  EXPECT_EQ(run_experiment(config_, trace_, deterministic).size(), 1u);
}

TEST_F(ExperimentFixture, CancelFromCheckpointHookStopsTheExperiment) {
  config_.cancel = CancelToken::make();
  std::atomic<std::size_t> seen{0};
  config_.on_checkpoint = [this, &seen](const ExperimentSpec&, std::uint64_t,
                                        const Checkpoint&) {
    seen.fetch_add(1, std::memory_order_relaxed);
    config_.cancel.request_cancel();
  };
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  EXPECT_THROW(run_experiment(config_, trace_, specs), CancelledError);
  EXPECT_GE(seen.load(), 1u);

  // The same config minus the cancelled token still runs fine (the pool
  // and driver carry no poisoned state).
  config_.cancel = CancelToken{};
  config_.on_checkpoint = {};
  EXPECT_EQ(run_experiment(config_, trace_, specs).size(), 2u);
}

TEST_F(ExperimentFixture, CheckpointHookSeesEverySpecAndSeed) {
  std::mutex mu;
  std::vector<std::string> labels;
  config_.trials = 2;
  config_.on_checkpoint = [&](const ExperimentSpec& spec, std::uint64_t seed,
                              const Checkpoint& c) {
    const std::lock_guard<std::mutex> lock(mu);
    labels.push_back(spec.algorithm + "/" + std::to_string(seed) + "/" +
                     std::to_string(c.requests));
  };
  const std::vector<ExperimentSpec> specs = {{.algorithm = "r_bma", .b = 2}};
  run_experiment(config_, trace_, specs);
  // r_bma is randomized: trials distinct seeds × checkpoints hooks fire.
  EXPECT_EQ(labels.size(), config_.trials * config_.checkpoints);
}

TEST_F(ExperimentFixture, RandomizedFlagging) {
  EXPECT_TRUE(is_randomized("r_bma"));
  EXPECT_FALSE(is_randomized("bma"));
  EXPECT_FALSE(is_randomized("oblivious"));
  EXPECT_FALSE(is_randomized("so_bma"));
}

TEST_F(ExperimentFixture, ReportTablesRenderAllSeries) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 2},
      {.algorithm = "oblivious", .b = 2},
  };
  const auto results = run_experiment(config_, trace_, specs);
  std::ostringstream table;
  print_table(table, results, Metric::kRoutingCost, "test");
  const std::string text = table.str();
  EXPECT_NE(text.find("r_bma(b=2)"), std::string::npos);
  EXPECT_NE(text.find("oblivious(b=2)"), std::string::npos);
  EXPECT_NE(text.find("routing_cost"), std::string::npos);

  std::ostringstream csv;
  write_csv(csv, results, Metric::kRoutingCost);
  // Header + one line per checkpoint.
  std::size_t lines = 0;
  for (char c : csv.str()) lines += (c == '\n');
  EXPECT_EQ(lines, 1 + config_.checkpoints);

  std::ostringstream summary;
  print_summary(summary, results, results.back());
  EXPECT_NE(summary.str().find("reduction"), std::string::npos);
}

TEST_F(ExperimentFixture, ObliviousDominatesDemandAwareOnSkewedTrace) {
  const std::vector<ExperimentSpec> specs = {
      {.algorithm = "r_bma", .b = 4},
      {.algorithm = "bma", .b = 4},
      {.algorithm = "oblivious", .b = 4},
  };
  const auto results = run_experiment(config_, trace_, specs);
  const auto rbma = results[0].final().routing_cost;
  const auto bma = results[1].final().routing_cost;
  const auto obl = results[2].final().routing_cost;
  EXPECT_LT(rbma, obl);
  EXPECT_LT(bma, obl);
}

}  // namespace
