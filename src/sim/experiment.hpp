// rdcn: parameter-sweep experiment driver.
//
// Encodes the paper's methodology (§3.1): a fixed trace, a set of
// algorithm/b combinations, each randomized combination repeated `trials`
// times with distinct seeds and averaged.  Trials run in parallel (each
// trial owns its matcher and RNG stream); deterministic algorithms run a
// single trial since repetition would be a no-op.
//
// There is one body, over one trace::SharedTrace: every task replays it
// in place and takes its checkpoint grid from its length.  A task that
// needs a block the trace does not have yet produces it (or waits for the
// task producing it), so the tasks replay the trace while it is generated
// and no thread is set aside to generate it.  The Trace overload wraps a
// complete trace.
//
// Tasks are dispatched in cost order: longest estimated task first
// (Graham's LPT rule), by the registry's per-(algorithm, b) cost model,
// so the longest task never starts last and runs alone.  Results are
// stored by (spec, trial) and returned in spec order, so ledgers, trial
// averages and CSV bytes do not depend on dispatch order or thread
// count; only wall time and the order of checkpoint callbacks do.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/param_map.hpp"
#include "net/distance_matrix.hpp"
#include "sim/metrics.hpp"
#include "trace/shared_trace.hpp"
#include "trace/trace.hpp"

namespace rdcn::sim {

struct ExperimentSpec {
  std::string algorithm;  ///< scenario::AlgorithmRegistry name ("r_bma", ...)
  std::size_t b = 1;
  ParamMap params{};  ///< algorithm parameters ("engine=lru,eager", ...)
  std::string label;  ///< display label; default "<algorithm>(b=<b>)"

  std::string display() const {
    return !label.empty()
               ? label
               : algorithm + "(b=" + std::to_string(b) + ")";
  }
};

struct ExperimentConfig {
  const net::DistanceMatrix* distances = nullptr;
  std::uint64_t alpha = 100;
  std::size_t a = 0;          ///< offline degree bound (0 = same as b)
  std::size_t checkpoints = 8;
  std::size_t trials = 5;     ///< repetitions for randomized algorithms
  std::uint64_t base_seed = 42;
  std::size_t threads = 0;    ///< 0 = hardware concurrency

  /// Cooperative cancellation (serving mode).  Once the token fires, tasks
  /// not yet started are skipped and running trials stop at their next
  /// serve-chunk boundary; run_experiment then throws CancelledError
  /// instead of returning partial averages.  Inert by default.
  CancelToken cancel{};
  /// Optional progress stream: called for every checkpoint of every trial,
  /// possibly from several pool workers at once (must be thread-safe).
  /// Within a trial checkpoints arrive in grid order; across trials they
  /// follow dispatch order (see dispatch_order), even at threads = 1.
  std::function<void(const ExperimentSpec& spec, std::uint64_t seed,
                     const Checkpoint& checkpoint)>
      on_checkpoint{};
};

/// Whether an algorithm's behaviour depends on its seed (from its
/// AlgorithmRegistry entry; unknown names are treated as deterministic).
bool is_randomized(const std::string& algorithm);

/// One unit of run_experiment's work: trial `trial` of `specs[spec]`,
/// seeded base_seed + trial.
struct ExperimentTask {
  std::size_t spec = 0;
  std::size_t trial = 0;
  double cost = 0;  ///< scenario::AlgorithmEntry::task_cost estimate
};

/// The tasks run_experiment expands `specs` into — `trials` per randomized
/// algorithm, one per deterministic one — in the order it dispatches them:
/// descending estimated cost for `requests` requests each, ties in (spec,
/// trial) order.  Throws SpecError on an unknown algorithm.
std::vector<ExperimentTask> dispatch_order(
    const std::vector<ExperimentSpec>& specs, std::size_t trials,
    std::size_t requests);

/// Runs every spec over `trace`; returns one (trial-averaged) RunResult per
/// spec, in spec order.  An online task starts on the first block and
/// produces the blocks it reaches first; a task whose algorithm
/// needs_full_trace produces what is left (SharedTrace::complete) before
/// it builds.  A trace that keeps one block serves a single online task.
/// When the token fires, production stops within one block and the run
/// throws CancelledError; an exception of the source stream is rethrown as
/// itself.  An empty trace, or one shorter than config.checkpoints, raises
/// SpecError.
std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      trace::SharedTrace& trace,
                                      const std::vector<ExperimentSpec>& specs);

/// The same over a materialized trace.
std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const trace::Trace& trace,
                                      const std::vector<ExperimentSpec>& specs);

}  // namespace rdcn::sim
