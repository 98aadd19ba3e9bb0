// rdcn: string-keyed component registries — the single extension point
// of the scenario API.
//
// The paper's evaluation (§3.1) is a matrix {topologies} × {workloads} ×
// {algorithms, b, α}.  These registries make each axis of that matrix
// string-addressable and extensible:
//
//   AlgorithmRegistry   name + ParamMap + Instance (+ full trace for
//                       offline comparators) → OnlineBMatcher.  Subsumes
//                       core::make_matcher; RBmaOptions / paging-engine
//                       selection / offline windows become parameters
//                       ("r_bma:engine=lru,eager", "offline_dynamic:window=5000").
//   TopologyRegistry    name + ParamMap + rack count → net::Topology,
//                       wrapping the net::make_* builders ("torus:rows=5,cols=10").
//   WorkloadRegistry    name + ParamMap + racks/requests/seed →
//                       trace::TraceStream, wrapping trace::stream_*, the
//                       Facebook/Microsoft cluster profiles, and CSV import
//                       ("csv:path=trace.csv"); make() materializes it.
//
// Every entry carries a one-line summary plus per-parameter docs, so help
// text, CLI validation, and sweep tooling are *generated* from the
// registries instead of hand-synced (see catalog_text and rdcn_sim).
// Unknown names raise SpecError with a nearest-match suggestion; unknown
// parameters are rejected via ParamMap::require_all_consumed.  A component
// added with Registry::add (e.g. WorkloadRegistry::instance().add(...))
// is addressable by name in every driver, bench, and test.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/param_map.hpp"
#include "common/rng.hpp"
#include "core/online_matcher.hpp"
#include "net/topology.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::scenario {

/// Documentation for one parameter of a registered component.
struct ParamDoc {
  std::string key;
  std::string doc;
  std::string default_value;  ///< "" = required
};

struct AlgorithmEntry {
  std::string summary;
  std::vector<ParamDoc> params;
  /// Whether behaviour depends on the seed (drives trial repetition).
  bool randomized = false;
  /// Offline comparators need the complete trace up front.
  bool needs_full_trace = false;
  /// Ignores b (a sweep over cache sizes needs only one run).
  bool b_independent = false;
  /// Cost model.  One task (one trial at one b) costs requests ×
  /// (cost_per_request + cost_per_b × b) r_bma-equivalent requests; r_bma
  /// itself is 1 + 0·b, about 18 ns per request single-threaded on the
  /// reference host (4-vCPU AVX-512 VM, Release; r_bma measures 17–19 ns
  /// at b = 4 and at b = 64).  rotor is fitted against this unit; the
  /// other entries were fitted against an r_bma of 19–26 ns and are not
  /// re-fitted: against this unit most read low, bma by up to a third
  /// (b = 4).  Build work (so_bma's static matching, offline_dynamic's
  /// windows) is folded in per request.
  /// Source: serve ns/request plus build ns/request on fat_tree, 100
  /// racks, facebook_db, 10^6 requests, divided by r_bma's at the same b,
  /// fitted through b = 4 and b = 64.
  /// To recalibrate, take the core.<alg>.b<b>.ns_per_request and
  /// core.<alg>.b<b>.build_ms rows of `python3 rdcn_bench/run.py
  /// --workload replay_1m --trace 1`; rotor and offline_dynamic are not in
  /// that cell, so time them with `rdcn_sim --threads=1 --trials=1
  /// --profile` (the algo.<name> phase) in one cell of two or more tasks
  /// that also runs r_bma, e.g. `--algorithms=r_bma,greedy,offline_dynamic`.
  /// An online task's algo.<name> phase includes the blocks of the trace
  /// it generates (its sim.generate child); an offline comparator
  /// generates what is left in trace.wait, outside its algo.<name>.  At
  /// --threads=1 the first task in dispatch order generates every block,
  /// so when that task is online, subtract its sim.generate.  The
  /// algo.<name> phases sit under the cell's scenario.experiment at any
  /// --threads, but time at --threads=1: with more threads the tasks
  /// share cores, caches and memory bandwidth, and a task's sim.generate
  /// also holds its waits for blocks that another task is producing.
  /// sim::run_experiment dispatches tasks longest-first by this estimate;
  /// it never affects results.
  double cost_per_request = 1.0;
  double cost_per_b = 0.0;

  /// The tasks one (algorithm, b) column runs: one per trial when
  /// randomized, else one.
  std::size_t repetitions(std::size_t trials) const {
    return randomized ? trials : 1;
  }

  /// The cost model's estimate for one task; never negative.
  double task_cost(std::size_t b, std::size_t requests) const {
    const double weight =
        cost_per_request + cost_per_b * static_cast<double>(b);
    return weight > 0 ? weight * static_cast<double>(requests) : 0.0;
  }

  std::function<std::unique_ptr<core::OnlineBMatcher>(
      const core::Instance& instance, const ParamMap& params,
      const trace::Trace* full_trace, std::uint64_t seed)>
      build;
};

struct TopologyEntry {
  std::string summary;
  std::vector<ParamDoc> params;
  std::function<net::Topology(std::size_t racks, const ParamMap& params,
                              Xoshiro256& rng)>
      build;
};

struct WorkloadEntry {
  std::string summary;
  std::vector<ParamDoc> params;
  /// Builds the workload as a fresh stream.  The rng is snapshotted, never
  /// advanced (the trace/generators.hpp stream_* convention), so equal rng
  /// states replay equal request sequences.
  std::function<std::unique_ptr<trace::TraceStream>(
      std::size_t racks, std::size_t requests, const ParamMap& params,
      const Xoshiro256& rng)>
      build;
};

template <typename Entry>
class Registry {
 public:
  /// Registers `name`; duplicate names are a programming error (asserts).
  void add(const std::string& name, Entry entry);

  /// nullptr when unknown (no error).
  const Entry* find(std::string_view name) const;

  /// Throws SpecError with a nearest-match suggestion when unknown.
  const Entry& at(std::string_view name) const;

  /// Cheap static validation (no construction): the name must be
  /// registered and every parameter key documented in the entry's
  /// ParamDocs.  Throws SpecError with suggestions otherwise.  Together
  /// with the post-build consumption check in make() this forces the param
  /// docs to match the implementation exactly — which is what lets help
  /// text and CLI validation be generated instead of hand-synced.
  void validate(const Spec& spec) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 protected:
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

 private:
  std::map<std::string, Entry, std::less<>> entries_;  ///< found by view
  std::string kind_;  ///< "algorithm" | "topology" | "workload" (for errors)
};

class AlgorithmRegistry : public Registry<AlgorithmEntry> {
 public:
  AlgorithmRegistry() : Registry("algorithm") {}

  static AlgorithmRegistry& instance();

  /// Builds, then rejects unconsumed (unknown) parameters.  Throws
  /// SpecError when the algorithm is offline and `full_trace` is null.
  std::unique_ptr<core::OnlineBMatcher> make(const Spec& spec,
                                             const core::Instance& instance,
                                             const trace::Trace* full_trace,
                                             std::uint64_t seed) const;
};

class TopologyRegistry : public Registry<TopologyEntry> {
 public:
  TopologyRegistry() : Registry("topology") {}

  static TopologyRegistry& instance();

  net::Topology make(const Spec& spec, std::size_t racks,
                     Xoshiro256& rng) const;
};

class WorkloadRegistry : public Registry<WorkloadEntry> {
 public:
  WorkloadRegistry() : Registry("workload") {}

  static WorkloadRegistry& instance();

  /// Builds the workload as a TraceStream (constant-memory replay of
  /// arbitrarily long traces).  The rng is read, not advanced.
  std::unique_ptr<trace::TraceStream> make_stream(const Spec& spec,
                                                  std::size_t racks,
                                                  std::size_t requests,
                                                  const Xoshiro256& rng) const;

  /// materialize(*make_stream(...)): the same requests, held in memory.
  trace::Trace make(const Spec& spec, std::size_t racks,
                    std::size_t requests, const Xoshiro256& rng) const;
};

/// Convenience wrappers taking compact spec strings ("r_bma:engine=lru").
/// These are the registry-era replacement for core::make_matcher.
std::unique_ptr<core::OnlineBMatcher> make_algorithm(
    const std::string& spec, const core::Instance& instance,
    const trace::Trace* full_trace = nullptr, std::uint64_t seed = 1);
net::Topology make_topology(const std::string& spec, std::size_t racks,
                            Xoshiro256& rng);
trace::Trace make_workload(const std::string& spec, std::size_t racks,
                           std::size_t requests, const Xoshiro256& rng);

/// Splits a comma-separated list of algorithm specs.  Commas both separate
/// specs and parameters; a segment opens a new spec iff its head (text
/// before ':', trimmed) is a registered algorithm name, otherwise it
/// extends the previous spec's parameters:  "r_bma:engine=lru,eager,bma" →
/// ["r_bma:engine=lru,eager", "bma"].
std::vector<Spec> parse_algorithm_list(std::string_view text);

/// Human-readable catalog of all three registries with per-parameter docs —
/// the generated half of rdcn_sim's --help text.
std::string catalog_text();

/// "did you mean ...?" support: the candidate closest to `name` in edit
/// distance, or "" when nothing is plausibly close.
std::string nearest_name(const std::string& name,
                         const std::vector<std::string>& candidates);

}  // namespace rdcn::scenario
