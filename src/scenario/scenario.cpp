#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>

#include "common/assert.hpp"
#include "obs/span.hpp"
#include "sim/parallel_runner.hpp"

namespace rdcn::scenario {

namespace {

// Fully qualified: scenario::detail (the registrar helpers) shadows
// rdcn::detail here.
using rdcn::detail::split;
using rdcn::detail::trim;

/// One entry of the b list, through ParamMap's typed conversion (the
/// same SpecErrors as a scalar field).
std::size_t parse_cache_size(const std::string& text) {
  ParamMap one;
  one.set("b", trim(text));
  return one.get<std::size_t>("b");
}

std::string size_list_to_string(const std::vector<std::size_t>& values) {
  std::string out;
  for (std::size_t v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ParamMap fields;
  for (const std::string& raw_field : split(text, ';')) {
    const std::string field = trim(raw_field);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw SpecError("scenario field '" + field +
                      "' is not of the form key=value");
    const std::string key = trim(field.substr(0, eq));
    // Same stance as ParamMap::parse: within one spec a repeated key is a
    // typo, not an override.
    if (fields.contains(key))
      throw SpecError("duplicate scenario field '" + key + "'");
    fields.set(key, trim(field.substr(eq + 1)));
  }
  return parse(fields);
}

ScenarioSpec ScenarioSpec::parse(const ParamMap& fields) {
  ScenarioSpec spec;
  if (fields.contains("topology"))
    spec.topology = Spec::parse(fields.get<std::string>("topology"));
  if (fields.contains("workload"))
    spec.workload = Spec::parse(fields.get<std::string>("workload"));
  spec.algorithms =
      parse_algorithm_list(fields.get<std::string>("algorithms", ""));
  if (fields.contains("b"))
    for (const std::string& b : split(fields.get<std::string>("b"), ','))
      spec.cache_sizes.push_back(parse_cache_size(b));
  spec.racks = fields.get("racks", spec.racks);
  spec.requests = fields.get("requests", spec.requests);
  spec.a = fields.get("a", spec.a);
  spec.alpha = fields.get("alpha", spec.alpha);
  spec.trials = fields.get("trials", spec.trials);
  spec.checkpoints = fields.get("checkpoints", spec.checkpoints);
  spec.seed = fields.get("seed", spec.seed);
  spec.threads = fields.get("threads", spec.threads);
  const std::vector<std::string> unknown = fields.unconsumed_keys();
  if (!unknown.empty())
    throw SpecError(
        "unknown scenario field '" + unknown.front() +
        "'; known: topology, workload, algorithms, b, racks, requests, a, "
        "alpha, trials, checkpoints, seed, threads");
  return spec;
}

namespace {

/// Shared body of to_string/canonical_string.  `canonical` switches the
/// component specs to sorted-param printing and drops execution-only
/// fields, making equal experiments print equal.
std::string spec_to_string(const ScenarioSpec& r, bool canonical) {
  std::string algorithms;
  for (const Spec& a : r.algorithms) {
    if (!algorithms.empty()) algorithms += ',';
    algorithms += canonical ? a.canonical_string() : a.to_string();
  }
  std::string out;
  out += "topology=" +
         (canonical ? r.topology.canonical_string() : r.topology.to_string());
  out += ";workload=" +
         (canonical ? r.workload.canonical_string() : r.workload.to_string());
  out += ";algorithms=" + algorithms;
  out += ";b=" + size_list_to_string(r.cache_sizes);
  out += ";racks=" + std::to_string(r.racks);
  out += ";requests=" + std::to_string(r.requests);
  out += ";a=" + std::to_string(r.a);
  out += ";alpha=" + std::to_string(r.alpha);
  out += ";trials=" + std::to_string(r.trials);
  out += ";checkpoints=" + std::to_string(r.checkpoints);
  out += ";seed=" + std::to_string(r.seed);
  // threads is an execution detail, not part of the experiment's identity:
  // canonical forms drop it entirely (two submissions differing only in
  // thread count are the same experiment), and to_string omits only the
  // default (0 = hardware concurrency) so a pinned count survives the
  // parse/to_string round-trip.
  if (!canonical && r.threads != 0)
    out += ";threads=" + std::to_string(r.threads);
  return out;
}

}  // namespace

std::string ScenarioSpec::to_string() const {
  return spec_to_string(resolved(), /*canonical=*/false);
}

std::string ScenarioSpec::canonical_string() const {
  return spec_to_string(resolved(), /*canonical=*/true);
}

ScenarioSpec ScenarioSpec::resolved() const {
  ScenarioSpec out = *this;
  if (out.algorithms.empty())
    out.algorithms = {Spec{"r_bma", {}}, Spec{"bma", {}},
                      Spec{"oblivious", {}}};
  if (out.cache_sizes.empty()) out.cache_sizes = {12};
  return out;
}

void check_run_shape(const ScenarioSpec& spec) {
  if (spec.racks < 2) throw SpecError("racks must be at least 2");
  if (spec.requests == 0) throw SpecError("requests must be positive");
  if (spec.checkpoints == 0) throw SpecError("checkpoints must be positive");
  for (std::size_t b : spec.cache_sizes)
    if (b == 0) throw SpecError("b must be positive");
  if (spec.requests < spec.checkpoints)
    throw SpecError("requests (" + std::to_string(spec.requests) +
                    ") must be >= checkpoints (" +
                    std::to_string(spec.checkpoints) + ")");
  if (spec.alpha > std::numeric_limits<std::uint32_t>::max())
    throw SpecError("alpha (" + std::to_string(spec.alpha) +
                    ") must be <= 4294967295");
}

namespace {

sim::ExperimentConfig make_experiment_config(const ScenarioSpec& spec,
                                             const ScenarioResult& result,
                                             const RunHooks& hooks) {
  sim::ExperimentConfig config;
  config.distances = &result.topology.distances;
  config.alpha = spec.alpha;
  config.a = spec.a;
  config.checkpoints = spec.checkpoints;
  config.trials = spec.trials;
  config.base_seed = spec.seed;
  config.threads = spec.threads;
  config.cancel = hooks.cancel;
  if (hooks.on_checkpoint) {
    config.on_checkpoint = [on_checkpoint = hooks.on_checkpoint](
                               const sim::ExperimentSpec& experiment,
                               std::uint64_t seed, const sim::Checkpoint& c) {
      on_checkpoint(experiment.display(), seed, c);
    };
  }
  return config;
}

std::vector<sim::ExperimentSpec> make_experiment_specs(
    const ScenarioSpec& spec) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  std::vector<sim::ExperimentSpec> experiment_specs;
  for (const Spec& algorithm : spec.algorithms) {
    registry.validate(algorithm);
    const bool b_independent = registry.at(algorithm.name).b_independent;
    for (std::size_t b : spec.cache_sizes) {
      sim::ExperimentSpec e;
      e.algorithm = algorithm.name;
      e.b = b;
      e.params = algorithm.params;
      e.label = algorithm.to_string() + "(b=" + std::to_string(b) + ")";
      experiment_specs.push_back(std::move(e));
      if (b_independent) break;  // one column suffices for a b sweep
    }
  }
  return experiment_specs;
}

/// Whether the cell's tasks must share one materialized trace: an offline
/// comparator reads the whole trace up front, and more than one task would
/// otherwise regenerate it once each.
bool must_materialize(const std::vector<sim::ExperimentSpec>& columns,
                      std::size_t trials) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  for (const sim::ExperimentSpec& column : columns)
    if (registry.at(column.algorithm).needs_full_trace) return true;
  return sim::dispatch_order(columns, trials, /*requests=*/1).size() > 1;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& raw_spec,
                            const RunHooks& hooks) {
  const ScenarioSpec spec = raw_spec.resolved();
  check_run_shape(spec);
  const std::vector<sim::ExperimentSpec> columns = make_experiment_specs(spec);
  const bool materialized = must_materialize(columns, spec.trials);

  // One RNG stream seeds topology construction, then workload generation —
  // the same order the historical rdcn_sim driver used, so a fixed seed
  // reproduces its networks and traces exactly.
  Xoshiro256 rng(spec.seed);
  ScenarioResult result;
  result.spec = spec;
  {
    obs::ObsSpan span("scenario.topology");
    result.topology =
        TopologyRegistry::instance().make(spec.topology, spec.racks, rng);
  }
  const std::size_t topology_racks = result.topology.num_racks();

  std::unique_ptr<trace::TraceStream> stream;
  {
    obs::ObsSpan span("scenario.workload");
    // `racks` is a request, not a contract: builders round to their
    // natural sizes (2^dim hypercubes, rows x cols tori).  Generate the
    // workload over what the network actually provides so explicit
    // topology dimensions always yield a runnable scenario.
    stream = WorkloadRegistry::instance().make_stream(
        spec.workload, std::min(spec.racks, topology_racks), spec.requests,
        rng);
    if (stream->num_racks() > topology_racks)
      throw SpecError("workload '" + spec.workload.to_string() + "' uses " +
                      std::to_string(stream->num_racks()) +
                      " racks but topology '" + spec.topology.to_string() +
                      "' provides only " + std::to_string(topology_racks));
    result.workload = materialized
                          ? trace::materialize(*stream)
                          : trace::Trace(stream->num_racks(), stream->name());
  }

  const sim::ExperimentConfig config =
      make_experiment_config(spec, result, hooks);
  obs::ObsSpan span("scenario.experiment");
  if (materialized) {
    result.runs = sim::run_experiment(config, result.workload, columns);
  } else {
    // The single task replays the stream built above.
    result.runs = sim::run_experiment(
        config, [&stream] { return std::move(stream); }, columns);
  }
  return result;
}

std::vector<ScenarioResult> run_matrix(const ScenarioSpec& base,
                                       const std::vector<Spec>& topologies,
                                       const std::vector<Spec>& workloads) {
  const std::vector<Spec> topology_axis =
      topologies.empty() ? std::vector<Spec>{base.topology} : topologies;
  const std::vector<Spec> workload_axis =
      workloads.empty() ? std::vector<Spec>{base.workload} : workloads;

  std::vector<ScenarioSpec> cells;
  cells.reserve(topology_axis.size() * workload_axis.size());
  for (const Spec& topology : topology_axis) {
    for (const Spec& workload : workload_axis) {
      ScenarioSpec cell = base;
      cell.topology = topology;
      cell.workload = workload;
      cells.push_back(std::move(cell));
    }
  }

  // Matrix cells are independent end to end — topology build, workload
  // generation, and every (algorithm, b, trial) run derive only from the
  // cell's own spec (its seed included) — so they shard across the
  // persistent ThreadPool.  Results are written by index, which keeps the
  // row-major output order and makes the CSV independent of thread count
  // and completion order.  parallel_for bodies must not throw; capture the
  // first error (e.g. a workload/topology rack mismatch) and rethrow here.
  std::vector<ScenarioResult> out(cells.size());
  std::mutex error_mutex;
  std::string error;
  bool failed = false;
  sim::parallel_for(
      cells.size(),
      [&](std::size_t i) {
        try {
          out[i] = run_scenario(cells[i]);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed) error = e.what();
          failed = true;
        }
      },
      base.threads);
  if (failed) throw SpecError(error);
  return out;
}

}  // namespace rdcn::scenario
