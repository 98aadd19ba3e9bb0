#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "obs/span.hpp"
#include "sim/parallel_runner.hpp"

namespace rdcn::scenario {

namespace {

// Fully qualified: scenario::detail (the registrar helpers) shadows
// rdcn::detail here.
using rdcn::detail::append_number;
using rdcn::detail::split;
using rdcn::detail::trim;

/// The scenario fields in the order parse() reads them, which is the
/// order their errors are raised in.
enum Field : std::size_t {
  kTopology, kWorkload, kAlgorithms, kB, kRacks, kRequests, kA, kAlpha,
  kTrials, kCheckpoints, kSeed, kThreads, kFieldCount
};
constexpr std::array<std::string_view, kFieldCount> kFieldNames = {
    "topology", "workload", "algorithms", "b",           "racks", "requests",
    "a",        "alpha",    "trials",     "checkpoints", "seed",  "threads"};

/// What a parse found before reading any value: a view of each given
/// field's value (into the caller's text or ParamMap), and the keys no
/// field knows, in order.
struct RawFields {
  std::array<std::optional<std::string_view>, kFieldCount> value;
  std::vector<std::string_view> unknown;
};

template <typename T>
void read_field(const RawFields& raw, Field field, T& out) {
  if (raw.value[field])
    out = ParamMap::convert<T>(kFieldNames[field], *raw.value[field]);
}

/// The one body of both parse overloads.
ScenarioSpec read_fields(const RawFields& raw) {
  ScenarioSpec spec;
  if (raw.value[kTopology]) spec.topology = Spec::parse(*raw.value[kTopology]);
  if (raw.value[kWorkload]) spec.workload = Spec::parse(*raw.value[kWorkload]);
  if (const auto& list = raw.value[kAlgorithms]) {
    // Given but empty is refused like an empty b; only an absent field
    // means the default set.
    spec.algorithms = parse_algorithm_list(*list);
    if (spec.algorithms.empty())
      throw SpecError("parameter 'algorithms': cannot parse '" +
                      std::string(*list) + "' as an algorithm list");
  }
  if (raw.value[kB])
    split(*raw.value[kB], ',', [&](std::string_view b) {
      spec.cache_sizes.push_back(ParamMap::convert<std::size_t>("b", trim(b)));
    });
  read_field(raw, kRacks, spec.racks);
  read_field(raw, kRequests, spec.requests);
  read_field(raw, kA, spec.a);
  read_field(raw, kAlpha, spec.alpha);
  read_field(raw, kTrials, spec.trials);
  read_field(raw, kCheckpoints, spec.checkpoints);
  read_field(raw, kSeed, spec.seed);
  read_field(raw, kThreads, spec.threads);
  if (!raw.unknown.empty())
    throw SpecError(
        "unknown scenario field '" + std::string(raw.unknown.front()) +
        "'; known: topology, workload, algorithms, b, racks, requests, a, "
        "alpha, trials, checkpoints, seed, threads");
  return spec;
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  RawFields raw;
  split(text, ';', [&](std::string_view item) {
    const std::string_view field = trim(item);
    if (field.empty()) return;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos)
      throw SpecError("scenario field '" + std::string(field) +
                      "' is not of the form key=value");
    const std::string_view key = trim(field.substr(0, eq));
    const auto f = static_cast<std::size_t>(
        std::find(kFieldNames.begin(), kFieldNames.end(), key) -
        kFieldNames.begin());
    // Same stance as ParamMap::parse: within one spec a repeated key is a
    // typo, not an override.
    const bool repeated =
        f < kFieldCount
            ? raw.value[f].has_value()
            : std::find(raw.unknown.begin(), raw.unknown.end(), key) !=
                  raw.unknown.end();
    if (repeated)
      throw SpecError("duplicate scenario field '" + std::string(key) + "'");
    if (f < kFieldCount)
      raw.value[f] = trim(field.substr(eq + 1));
    else
      raw.unknown.push_back(key);
  });
  return read_fields(raw);
}

ScenarioSpec ScenarioSpec::parse(const ParamMap& fields) {
  RawFields raw;
  for (std::size_t f = 0; f < kFieldCount; ++f)
    if (const std::string* value = fields.find(kFieldNames[f]))
      raw.value[f] = *value;
  const std::vector<std::string> unknown = fields.unconsumed_keys();
  raw.unknown.assign(unknown.begin(), unknown.end());
  return read_fields(raw);
}

namespace {

/// What resolved() fills an empty list with; the printers show the same.
const std::vector<Spec>& default_algorithms() {
  static const std::vector<Spec> algorithms = {
      Spec{"r_bma", {}}, Spec{"bma", {}}, Spec{"oblivious", {}}};
  return algorithms;
}
const std::vector<std::size_t>& default_cache_sizes() {
  static const std::vector<std::size_t> cache_sizes = {12};
  return cache_sizes;
}

/// Shared body of to_string/canonical_string.  `canonical` switches the
/// component specs to sorted-param printing and drops execution-only
/// fields, making equal experiments print equal.
std::string spec_to_string(const ScenarioSpec& s, bool canonical) {
  const std::vector<Spec>& algorithms =
      s.algorithms.empty() ? default_algorithms() : s.algorithms;
  const std::vector<std::size_t>& cache_sizes =
      s.cache_sizes.empty() ? default_cache_sizes() : s.cache_sizes;
  std::string out;
  out.reserve(256);
  out += "topology=";
  s.topology.append_to(out, canonical);
  out += ";workload=";
  s.workload.append_to(out, canonical);
  out += ";algorithms=";
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    if (i > 0) out += ',';
    algorithms[i].append_to(out, canonical);
  }
  out += ";b=";
  for (std::size_t i = 0; i < cache_sizes.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, cache_sizes[i]);
  }
  const std::pair<const char*, std::uint64_t> numbers[] = {
      {";racks=", s.racks},   {";requests=", s.requests},
      {";a=", s.a},           {";alpha=", s.alpha},
      {";trials=", s.trials}, {";checkpoints=", s.checkpoints},
      {";seed=", s.seed}};
  for (const auto& [field, value] : numbers) {
    out += field;
    append_number(out, value);
  }
  // threads is an execution detail, not part of the experiment's identity:
  // canonical forms drop it entirely (two submissions differing only in
  // thread count are the same experiment), and to_string omits only the
  // default (0 = hardware concurrency) so a pinned count survives the
  // parse/to_string round-trip.
  if (!canonical && s.threads != 0) {
    out += ";threads=";
    append_number(out, s.threads);
  }
  return out;
}

}  // namespace

std::string ScenarioSpec::to_string() const {
  return spec_to_string(*this, /*canonical=*/false);
}

std::string ScenarioSpec::canonical_string() const {
  return spec_to_string(*this, /*canonical=*/true);
}

ScenarioSpec ScenarioSpec::resolved() const& {
  return ScenarioSpec(*this).resolved();
}

ScenarioSpec ScenarioSpec::resolved() && {
  if (algorithms.empty()) algorithms = default_algorithms();
  if (cache_sizes.empty()) cache_sizes = default_cache_sizes();
  return std::move(*this);
}

void check_run_shape(const ScenarioSpec& spec) {
  if (spec.racks < 2) throw SpecError("racks must be at least 2");
  if (spec.requests == 0) throw SpecError("requests must be positive");
  if (spec.checkpoints == 0) throw SpecError("checkpoints must be positive");
  std::size_t min_b = std::numeric_limits<std::size_t>::max();
  for (std::size_t b : spec.cache_sizes) {
    if (b == 0) throw SpecError("b must be positive");
    min_b = std::min(min_b, b);
  }
  if (spec.a > min_b)
    throw SpecError("a (" + std::to_string(spec.a) +
                    ") exceeds the smallest b (" + std::to_string(min_b) +
                    "): the offline degree bound a must be <= every b");
  if (spec.requests < spec.checkpoints)
    throw SpecError("requests (" + std::to_string(spec.requests) +
                    ") must be >= checkpoints (" +
                    std::to_string(spec.checkpoints) + ")");
  if (spec.alpha > std::numeric_limits<std::uint32_t>::max())
    throw SpecError("alpha (" + std::to_string(spec.alpha) +
                    ") must be <= 4294967295");
  if (spec.requests > std::numeric_limits<std::uint32_t>::max())
    throw SpecError("requests (" + std::to_string(spec.requests) +
                    ") must be <= 4294967295");
  if (spec.trials == 0)
    for (const Spec& algorithm : spec.algorithms)
      if (sim::is_randomized(algorithm.name))
        throw SpecError("trials must be positive: '" + algorithm.name +
                        "' is randomized");
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

/// The (algorithm, b) columns run_scenario runs, in result order: each
/// algorithm at every b, a b-independent one at the first b only.
std::vector<sim::ExperimentSpec> make_experiment_specs(
    const ScenarioSpec& spec) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  std::vector<sim::ExperimentSpec> experiment_specs;
  for (const Spec& algorithm : spec.algorithms) {
    registry.validate(algorithm);
    const bool b_independent = registry.at(algorithm.name).b_independent;
    for (const std::size_t b : spec.cache_sizes) {
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

/// Whether the cell keeps its whole trace: an offline comparator reads
/// the whole trace, and more than one task would otherwise regenerate it
/// once each.  A single online task keeps only the block it serves.
bool keeps_whole(const std::vector<sim::ExperimentSpec>& columns,
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
  const bool whole = keeps_whole(columns, spec.trials);

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
    // The stream's construction only: the tasks generate the trace as
    // they reach its blocks (the sim.generate phase).
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
  }

  const sim::ExperimentConfig config =
      make_experiment_config(spec, result, hooks);
  obs::ObsSpan span("scenario.experiment");
  using Keep = trace::SharedTrace::Keep;
  trace::SharedTrace shared(*stream, whole ? Keep::kWhole : Keep::kOneBlock);
  result.runs = sim::run_experiment(config, shared, columns);
  result.workload = whole ? std::move(shared).take()
                          : trace::Trace(shared.num_racks(), shared.name());
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
