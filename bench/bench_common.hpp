// Shared harness for the figure-reproduction benches.
//
// Each figN binary reproduces one figure of the paper's evaluation (§3):
//   panel (a): routing cost vs #requests for R-BMA/BMA at three cache
//              sizes plus the Oblivious baseline,
//   panel (b): execution time vs #requests for the same configurations,
//   panel (c): "best of" comparison R-BMA vs BMA vs SO-BMA at the largest
//              cache size.
//
// Absolute values differ from the paper (synthetic traces, C++ vs Python —
// see DESIGN.md §3), but the shapes are the reproduction target; the
// SHAPE-CHECK lines print the qualitative assertions so regressions are
// visible in CI logs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "rdcn.hpp"

namespace rdcn::bench {

/// The request count of a fig/ablation bench: `argv[1]` when given, else
/// `fallback`.  Anything but one positive integer exits 2.
inline std::size_t request_count(int argc, char** argv,
                                 std::size_t fallback) {
  try {
    ParamMap args;
    if (argc > 1) args.set("requests", argv[1]);
    const std::size_t count = args.get("requests", fallback);
    if (argc <= 2 && count > 0) return count;
  } catch (const SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
  std::cerr << "usage: " << argv[0] << " [requests > 0]\n";
  std::exit(2);
}

struct FigureSetup {
  std::string figure;        ///< e.g. "Fig 1 (Facebook database cluster)"
  std::size_t num_racks;
  std::vector<std::size_t> cache_sizes;  ///< the three b values
  std::uint64_t alpha;
  std::size_t checkpoints = 8;
  std::size_t trials = 5;
  std::uint64_t seed = 2023;
  /// Accepted R-BMA/BMA routing-cost ratio.  §3.2 claims "almost the same"
  /// quality — within ~5% on the bursty Facebook traces; on the i.i.d.
  /// Microsoft trace the paper only claims "similar", so Fig 4 uses a
  /// slightly wider band (random marking evictions are structurally a bit
  /// weaker than usage counters without temporal structure to exploit).
  double quality_band = 1.10;
};

/// Runs the three panels for one figure and prints them.
inline void run_figure(const FigureSetup& setup, const trace::Trace& trace) {
  const net::Topology topo = net::make_fat_tree(setup.num_racks);

  std::cout << "==== " << setup.figure << " ====\n";
  std::cout << "trace=" << trace.name() << " requests=" << trace.size()
            << " racks=" << setup.num_racks << " alpha=" << setup.alpha
            << " trials=" << setup.trials << "\n";
  const trace::TraceStats stats = trace::compute_stats(trace);
  std::printf(
      "trace stats: distinct_pairs=%zu gini=%.3f entropy=%.3f "
      "locality(w64)=%.3f repeat_p=%.3f\n\n",
      stats.distinct_pairs, stats.gini, stats.normalized_pair_entropy,
      stats.locality_window64, stats.repeat_probability);

  sim::ExperimentConfig config;
  config.distances = &topo.distances;
  config.alpha = setup.alpha;
  config.checkpoints = setup.checkpoints;
  config.trials = setup.trials;
  config.base_seed = setup.seed;
  // Panel (b) reports wall-clock series; run trials sequentially so the
  // timing is not distorted by core contention ("each simulation is run
  // sequentially", §3.1).
  config.threads = 1;

  // Panels (a) and (b): R-BMA and BMA at each cache size + Oblivious.
  std::vector<sim::ExperimentSpec> specs;
  for (std::size_t b : setup.cache_sizes)
    specs.push_back({.algorithm = "r_bma",
                     .b = b,
                     .label = "R-BMA(b=" + std::to_string(b) + ")"});
  for (std::size_t b : setup.cache_sizes)
    specs.push_back({.algorithm = "bma",
                     .b = b,
                     .label = "BMA(b=" + std::to_string(b) + ")"});
  specs.push_back({.algorithm = "oblivious",
                   .b = setup.cache_sizes.front(),
                   .label = "Oblivious"});

  const auto results = sim::run_experiment(config, trace, specs);
  sim::print_table(std::cout, results, sim::Metric::kRoutingCost,
                   setup.figure + "a: routing cost vs #requests");
  sim::print_table(std::cout, results, sim::Metric::kWallSeconds,
                   setup.figure + "b: execution time vs #requests");

  // Panel (c): best-of at the largest cache size, including SO-BMA.
  const std::size_t b_max = setup.cache_sizes.back();
  const std::vector<sim::ExperimentSpec> best_specs = {
      {.algorithm = "r_bma",
       .b = b_max,
       .label = "R-BMA(b=" + std::to_string(b_max) + ")"},
      {.algorithm = "bma",
       .b = b_max,
       .label = "BMA(b=" + std::to_string(b_max) + ")"},
      {.algorithm = "so_bma",
       .b = b_max,
       .label = "SO-BMA(b=" + std::to_string(b_max) + ")"},
  };
  const auto best = sim::run_experiment(config, trace, best_specs);
  sim::print_table(std::cout, best, sim::Metric::kRoutingCost,
                   setup.figure + "c: best-of comparison");

  // Summary vs Oblivious (the paper's headline reduction numbers).
  sim::print_summary(std::cout, results, results.back());

  // SHAPE-CHECKs: the qualitative claims of §3.2.
  const auto& oblivious = results.back();
  const auto rbma_large = results[setup.cache_sizes.size() - 1];
  const auto bma_large = results[2 * setup.cache_sizes.size() - 1];
  auto pct = [](std::uint64_t x, std::uint64_t base) {
    return 100.0 * (1.0 - static_cast<double>(x) /
                              static_cast<double>(base));
  };
  std::printf(
      "SHAPE-CHECK demand-aware beats oblivious: R-BMA reduction %.1f%% "
      "(>0 expected): %s\n",
      pct(rbma_large.final().routing_cost, oblivious.final().routing_cost),
      rbma_large.final().routing_cost < oblivious.final().routing_cost
          ? "PASS"
          : "FAIL");
  const double quality_gap =
      static_cast<double>(rbma_large.final().routing_cost) /
      static_cast<double>(bma_large.final().routing_cost);
  std::printf(
      "SHAPE-CHECK R-BMA in BMA's quality band: ratio %.3f "
      "(<%.2f expected): %s\n",
      quality_gap, setup.quality_band,
      quality_gap < setup.quality_band ? "PASS" : "FAIL");
  const double time_ratio =
      bma_large.final().wall_seconds / rbma_large.final().wall_seconds;
  std::printf(
      "SHAPE-CHECK R-BMA faster than BMA at b=%zu: BMA/R-BMA time %.2fx "
      "(>1 expected): %s\n\n",
      b_max, time_ratio, time_ratio > 1.0 ? "PASS" : "FAIL");
}

}  // namespace rdcn::bench
