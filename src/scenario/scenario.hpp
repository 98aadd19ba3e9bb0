// rdcn: every experiment as data — ScenarioSpec + the scenario runner.
//
// A ScenarioSpec names one cell (or a b-sweep column) of the paper's
// evaluation matrix: a topology spec, a workload spec, a list of algorithm
// specs, and the shared instance knobs {b values, a, α, trials, seed}.  It
// parses from and prints to a single line
//
//   topology=torus:rows=5,cols=10;workload=flow_pool:pairs=2000,skew=1.2;
//   algorithms=r_bma:engine=lru,bma;b=6,12;racks=50;requests=100000;...
//
// so a whole experiment travels through CLIs, config files, and test
// goldens as one string.  run_scenario() builds the spec's topology and
// workload stream through the registries and drives sim::run_experiment
// (trial repetition + thread pool); run_matrix() crosses one base spec
// with lists of topologies and workloads — the §3.1 evaluation matrix in
// one call.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/param_map.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "trace/trace.hpp"

namespace rdcn::scenario {

struct ScenarioSpec {
  Spec topology{"fat_tree", {}};
  Spec workload{"facebook_db", {}};
  std::vector<Spec> algorithms;  ///< empty = {r_bma, bma, oblivious}
  std::vector<std::size_t> cache_sizes;  ///< b sweep; empty = {12}
  std::size_t racks = 100;
  std::size_t requests = 100'000;
  std::size_t a = 0;         ///< offline degree bound (0 = same as b)
  std::uint64_t alpha = 60;
  std::size_t trials = 5;    ///< repetitions for randomized algorithms
  std::size_t checkpoints = 8;
  std::uint64_t seed = 42;
  std::size_t threads = 0;   ///< 0 = hardware concurrency

  /// Parses the semicolon-separated "key=value;..." form (keys as in the
  /// field names above); a repeated key raises SpecError.  One pass keeps
  /// a view of each field's value, read as below.
  static ScenarioSpec parse(std::string_view text);

  /// Reads the fields from `fields` ("algorithms" through
  /// parse_algorithm_list, which must name at least one algorithm when
  /// given, "b" as a comma list; absent fields keep their defaults).  A
  /// malformed value, or any key no read consumed, raises SpecError — so
  /// a CLI reads its own flags first and passes the rest.  Both overloads
  /// read the values in one body, in the field order above: the first bad
  /// value raises its error, before any unknown key does.
  static ScenarioSpec parse(const ParamMap& fields);

  /// One-line form faithful to the spec as given (resolved defaults,
  /// component params in insertion order); parse(to_string()) round-trips.
  std::string to_string() const;

  /// The *canonical* form: like to_string(), but every component's params
  /// print in sorted order and execution-only fields (threads) are
  /// dropped, so any two specs describing the same experiment — params
  /// given in any order — produce the same string.  This is the identity
  /// the serving daemon's results cache keys on.  Field order, algorithm
  /// list order, and the b list stay as given (they determine result
  /// column order, hence are part of the experiment's identity).
  std::string canonical_string() const;

  /// Defaults applied (algorithms/cache_sizes filled when empty).
  ScenarioSpec resolved() const&;
  ScenarioSpec resolved() &&;  ///< the same, without a copy
};

/// Spec problems the registries cannot see but that no run survives:
/// fewer than 2 racks, zero requests or checkpoints, a cache size b of 0,
/// an offline degree bound a above some b (the (b,a) model needs a <= b,
/// and an offline plan of degree a cannot fit a degree-b matching),
/// fewer requests than checkpoints, an α above 2^32 − 1 (R-BMA counts
/// toward ⌈α/ℓ⌉ in a 32-bit per-pair counter, and a larger α can wrap the
/// 64-bit reconfiguration ledger), or more than 2^32 − 1 requests (a
/// ranked row packs a tick and a count of them into the two 32-bit halves
/// of one rank, common/ranked_row.hpp), or zero trials of a randomized
/// algorithm (nothing to average).  Throws SpecError.  run_scenario calls
/// it first; the serving daemon calls it at admission.
void check_run_shape(const ScenarioSpec& spec);

struct ScenarioResult {
  ScenarioSpec spec;  ///< resolved spec this result was produced from
  net::Topology topology;
  /// The replayed trace when the cell kept all of it (generated while its
  /// tasks replayed it).  A single online task's run keeps one block, so
  /// it leaves this empty, carrying only the workload's name and rack
  /// universe.
  trace::Trace workload;
  /// One (trial-averaged) result per algorithm × b, in spec order;
  /// b-independent algorithms (oblivious) contribute a single entry.
  std::vector<sim::RunResult> runs;
};

/// Live-run hooks for the serving layer, mapped onto
/// sim::ExperimentConfig's cancellation/progress fields.  Default = none.
struct RunHooks {
  /// Fires cooperatively: running trials stop at their next serve-chunk
  /// boundary and run_scenario throws CancelledError.
  CancelToken cancel{};
  /// Called after every checkpoint of every (algorithm × b, trial) run
  /// with the run's display label — possibly from several pool workers at
  /// once (must be thread-safe).
  std::function<void(const std::string& label, std::uint64_t seed,
                     const sim::Checkpoint& checkpoint)>
      on_checkpoint{};
};

/// Builds the topology, then the workload stream (once, on the calling
/// thread, seed-threaded), and runs every algorithm × b through
/// sim::run_experiment over one trace::SharedTrace of that stream.  The
/// tasks generate the trace as they first need each block (an offline
/// comparator generates what is left before it builds), and a cancel
/// stops the generation within one block.  The spec alone decides how
/// much of the trace is held in memory: all of it when an algorithm needs
/// the full trace (AlgorithmEntry::needs_full_trace) or when the cell
/// expands into more than one (algorithm, b, trial) task, since every
/// task replays it; a single online task keeps only the block it serves,
/// so arbitrarily long traces fit.  Ledgers are the same either way.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunHooks& hooks = {});

/// The §3.1 matrix: `base` crossed with every topology × workload
/// combination, in row-major (topology-outer) order.  Empty lists reuse the
/// base spec's entry.  Cells are independent and run in parallel on the
/// persistent ThreadPool (`base.threads`; 0 = hardware concurrency); every
/// cell derives its topology/workload RNG and per-trial seeds from the
/// spec alone, so results are identical for any thread count.
std::vector<ScenarioResult> run_matrix(const ScenarioSpec& base,
                                       const std::vector<Spec>& topologies,
                                       const std::vector<Spec>& workloads);

}  // namespace rdcn::scenario
