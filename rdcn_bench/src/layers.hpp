// rdcn_bench: the benchmark's calls into the library, shared by the
// workloads — the in-process reference run, the ledger oracle, and the
// per-layer probe that recomposes a scenario from separately timed calls
// into each module's public functions (net, trace, core, sim, scenario).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/metrics.hpp"

namespace rdcn::bench {

/// Final routing / reconfiguration / total cost of one result column.
struct Ledger {
  std::string label;
  std::uint64_t routing = 0;
  std::uint64_t reconfig = 0;
  std::uint64_t total = 0;

  bool same_costs(const Ledger& o) const {
    return routing == o.routing && reconfig == o.reconfig && total == o.total;
  }
};

std::vector<Ledger> ledgers(const std::vector<sim::RunResult>& runs);

/// Equal length and equal costs column by column.
bool same_ledgers(const std::vector<Ledger>& a, const std::vector<Ledger>& b);

/// In-process scenario::run_scenario + write_csv: the bytes a served RUN
/// of the same spec must reproduce.
struct Cell {
  std::vector<sim::RunResult> runs;
  std::string csv;
};
Cell run_cell(const scenario::ScenarioSpec& spec);

/// One (algorithm, b, trial) task replayed on one thread.
struct TaskTiming {
  std::string algorithm;
  std::size_t b = 0;
  double build_ms = 0;  ///< AlgorithmRegistry::make
  double serve_ms = 0;  ///< sim::run_simulation
};

/// The work of run_cell, one timed layer call at a time.
struct LayerProbe {
  std::size_t racks = 0;     ///< racks the topology provides
  std::size_t requests = 0;  ///< materialized trace length
  double topology_ms = 0;    ///< TopologyRegistry::make (net)
  double workload_ms = 0;    ///< WorkloadRegistry::make (trace)
  double experiment_ms = 0;  ///< sim::run_experiment at the spec's threads
  double csv_us = 0;         ///< sim::write_csv of the experiment's runs
  std::vector<TaskTiming> tasks;  ///< single-thread replay, when requested
  std::vector<Ledger> serial;     ///< its trial-averaged ledgers
  std::vector<Ledger> experiment; ///< run_experiment's ledgers

  double layer_sum_ms() const {
    return topology_ms + workload_ms + experiment_ms + csv_us / 1000.0;
  }
  double task_sum_ms() const;
};

/// `serial_replay` adds the independent single-thread replay of every
/// (algorithm, b, trial) task — the ledger oracle and the core timings.
LayerProbe probe_layers(const scenario::ScenarioSpec& spec,
                        bool serial_replay);

/// Median microseconds of the daemon's admission path for `spec_text`:
/// ScenarioSpec::parse, the three registry validate()s, canonical_string.
double admit_us(const std::string& spec_text, int reps);

}  // namespace rdcn::bench
