#include "layers.hpp"

#include <algorithm>
#include <sstream>

#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace rdcn::bench {

namespace {

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// sim::write_csv of the routing-cost table: the daemon's RESULT payload.
std::string render_csv(const std::vector<sim::RunResult>& runs) {
  std::ostringstream csv;
  sim::write_csv(csv, runs, sim::Metric::kRoutingCost);
  return csv.str();
}

}  // namespace

std::vector<Ledger> ledgers(const std::vector<sim::RunResult>& runs) {
  std::vector<Ledger> out;
  for (const sim::RunResult& r : runs) {
    const sim::Checkpoint& c = r.final();
    out.push_back({r.algorithm, c.routing_cost, c.reconfig_cost, c.total_cost});
  }
  return out;
}

bool same_ledgers(const std::vector<Ledger>& a, const std::vector<Ledger>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Ledger& x, const Ledger& y) {
                      return x.same_costs(y);
                    });
}

Cell run_cell(const scenario::ScenarioSpec& spec) {
  scenario::ScenarioResult result = scenario::run_scenario(spec);
  std::string csv = render_csv(result.runs);
  return {std::move(result.runs), std::move(csv)};
}

double LayerProbe::task_sum_ms() const {
  double sum = 0;
  for (const TaskTiming& t : tasks) sum += t.build_ms + t.serve_ms;
  return sum;
}

LayerProbe probe_layers(const scenario::ScenarioSpec& raw_spec,
                        bool serial_replay) {
  const scenario::ScenarioSpec spec = raw_spec.resolved();
  LayerProbe probe;

  // Same RNG threading as run_scenario: topology first, then workload.
  Xoshiro256 rng(spec.seed);
  auto start = Clock::now();
  const net::Topology topology =
      scenario::TopologyRegistry::instance().make(spec.topology, spec.racks,
                                                  rng);
  probe.topology_ms = ms_since(start);
  probe.racks = topology.num_racks();

  start = Clock::now();
  const trace::Trace trace = scenario::WorkloadRegistry::instance().make(
      spec.workload, std::min(spec.racks, topology.num_racks()),
      spec.requests, rng);
  probe.workload_ms = ms_since(start);
  probe.requests = trace.size();

  sim::ExperimentConfig config;
  config.distances = &topology.distances;
  config.alpha = spec.alpha;
  config.a = spec.a;
  config.checkpoints = spec.checkpoints;
  config.trials = spec.trials;
  config.base_seed = spec.seed;
  config.threads = spec.threads;

  const scenario::AlgorithmRegistry& registry =
      scenario::AlgorithmRegistry::instance();
  std::vector<sim::ExperimentSpec> columns;
  for (const Spec& algorithm : spec.algorithms) {
    for (const std::size_t b : spec.cache_sizes) {
      columns.push_back({algorithm.name, b, algorithm.params,
                         algorithm.to_string() + "(b=" + std::to_string(b) +
                             ")"});
      if (registry.at(algorithm.name).b_independent) break;
    }
  }

  if (serial_replay) {
    const std::vector<std::uint64_t> grid =
        sim::checkpoint_grid(trace.size(), spec.checkpoints);
    for (const sim::ExperimentSpec& column : columns) {
      core::Instance instance;
      instance.distances = &topology.distances;
      instance.b = column.b;
      instance.a = spec.a;
      instance.alpha = spec.alpha;
      const std::size_t trials =
          sim::is_randomized(column.algorithm) ? spec.trials : 1;
      std::vector<sim::RunResult> runs;
      for (std::size_t t = 0; t < trials; ++t) {
        TaskTiming timing{column.algorithm, column.b};
        start = Clock::now();
        auto matcher = registry.make({column.algorithm, column.params},
                                     instance, &trace, spec.seed + t);
        timing.build_ms = ms_since(start);
        start = Clock::now();
        runs.push_back(sim::run_simulation(*matcher, trace, grid));
        timing.serve_ms = ms_since(start);
        probe.tasks.push_back(timing);
      }
      sim::RunResult averaged = sim::average_runs(runs);
      averaged.algorithm = column.display();
      probe.serial.push_back(ledgers({averaged}).front());
    }
  }

  start = Clock::now();
  const std::vector<sim::RunResult> runs =
      sim::run_experiment(config, trace, columns);
  probe.experiment_ms = ms_since(start);
  probe.experiment = ledgers(runs);

  start = Clock::now();
  render_csv(runs);
  probe.csv_us = ms_since(start) * 1e3;
  return probe;
}

double admit_us(const std::string& spec_text, int reps) {
  std::vector<double> samples;
  std::size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::parse(spec_text);
    const scenario::ScenarioSpec resolved = spec.resolved();
    scenario::TopologyRegistry::instance().validate(resolved.topology);
    scenario::WorkloadRegistry::instance().validate(resolved.workload);
    for (const Spec& algorithm : resolved.algorithms)
      scenario::AlgorithmRegistry::instance().validate(algorithm);
    sink += spec.canonical_string().size();
    samples.push_back(seconds_since(start) * 1e6);
  }
  if (sink == 0) samples.push_back(0);  // keeps the loop observable
  return percentile(samples, 50);
}

}  // namespace rdcn::bench
