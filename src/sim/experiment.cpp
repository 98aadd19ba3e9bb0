#include "sim/experiment.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "obs/span.hpp"
#include "scenario/registry.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/simulator.hpp"

namespace rdcn::sim {

bool is_randomized(const std::string& algorithm) {
  const scenario::AlgorithmEntry* entry =
      scenario::AlgorithmRegistry::instance().find(algorithm);
  return entry != nullptr && entry->randomized;
}

std::vector<ExperimentTask> dispatch_order(
    const std::vector<ExperimentSpec>& specs, std::size_t trials,
    std::size_t requests) {
  const scenario::AlgorithmRegistry& registry =
      scenario::AlgorithmRegistry::instance();
  std::vector<ExperimentTask> tasks;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const scenario::AlgorithmEntry& entry = registry.at(specs[s].algorithm);
    const double cost = entry.task_cost(specs[s].b, requests);
    const std::size_t reps = entry.randomized ? trials : 1;
    for (std::size_t t = 0; t < reps; ++t) tasks.push_back({s, t, cost});
  }
  // Longest first: the pool's workers claim tasks in this order, so the
  // shorter tasks fill in around the costliest one instead of leaving it
  // to run alone at the end.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const ExperimentTask& a, const ExperimentTask& b) {
                     return a.cost > b.cost;
                   });
  return tasks;
}

namespace {

core::Instance make_instance(const ExperimentConfig& config,
                             const ExperimentSpec& spec) {
  core::Instance instance;
  instance.distances = config.distances;
  instance.b = spec.b;
  instance.a = config.a;
  instance.alpha = config.alpha;
  return instance;
}

/// The one body behind both run_experiment overloads: validates the specs,
/// expands them into independent (spec, trial) tasks with deterministic
/// paired seeds, shards the tasks over the persistent ThreadPool in
/// dispatch_order, and averages each spec's trials.  Every task replays a
/// fresh stream from `make_stream` and takes its checkpoint grid from that
/// stream's length; offline comparators are built from `full_trace` (null
/// when the input is only a stream: they then raise SpecError).  The first
/// task error is rethrown on the calling thread.
std::vector<RunResult> run_tasks(const ExperimentConfig& config,
                                 const std::vector<ExperimentSpec>& specs,
                                 const trace::Trace* full_trace,
                                 const StreamFactory& make_stream) {
  RDCN_ASSERT_MSG(config.distances != nullptr, "config needs distances");

  // Fail fast on unknown algorithm names / parameters before any trial
  // spends work (and on this thread, where SpecError can propagate).
  const scenario::AlgorithmRegistry& registry =
      scenario::AlgorithmRegistry::instance();
  for (const ExperimentSpec& spec : specs) {
    registry.validate({spec.algorithm, spec.params});
    // Zero trials would leave nothing to average.
    if (config.trials == 0 && is_randomized(spec.algorithm))
      throw SpecError("trials must be positive: '" + spec.algorithm +
                      "' is randomized");
  }

  // Seeds derive deterministically from the config alone (base_seed +
  // trial), trial t uses the same seed for every algorithm/b column
  // (paired seeds), and each result lands in its (spec, trial) slot, so a
  // sweep's results are identical for any thread count, dispatch order or
  // completion order.  Every task replays the same number of requests, so
  // any positive count yields the same longest-first order: no stream is
  // built just to learn its length.
  const std::vector<ExperimentTask> tasks =
      dispatch_order(specs, config.trials, /*requests=*/1);
  std::vector<std::vector<RunResult>> runs(specs.size());
  for (const ExperimentTask& task : tasks) runs[task.spec].emplace_back();

  // parallel_for tasks must not throw; capture the first construction
  // error (e.g. a required parameter a custom entry forgot to default)
  // and rethrow it on the calling thread.  Cancellations are captured
  // separately — a cancelled run is the caller's own doing, not a spec
  // problem, and reports as CancelledError.
  std::mutex error_mutex;
  std::string error;
  bool failed = false;
  std::string cancel_message;

  parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        const ExperimentTask& task = tasks[i];
        const ExperimentSpec& spec = specs[task.spec];
        const std::uint64_t seed = config.base_seed + task.trial;
        RunControl control;
        control.cancel = config.cancel;
        if (config.on_checkpoint) {
          control.on_checkpoint = [&config, &spec, seed](const Checkpoint& c) {
            config.on_checkpoint(spec, seed, c);
          };
        }
        try {
          // Per-algorithm phase: "algo.<name>" under whatever span the
          // caller holds (the daemon's serve.execute, rdcn_sim's run).
          // Name building and interning only happen while profiling.
          std::optional<obs::ObsSpan> algo_span;
          if (obs::tracing_enabled())
            algo_span.emplace(
                obs::intern_span_name("algo." + spec.algorithm));
          auto matcher = registry.make({spec.algorithm, spec.params},
                                       make_instance(config, spec),
                                       full_trace, seed);
          const std::unique_ptr<trace::TraceStream> stream = make_stream();
          RDCN_ASSERT_MSG(stream != nullptr && stream->produced() == 0,
                          "stream factory must yield fresh streams");
          RunResult r = run_simulation(
              *matcher, *stream,
              checkpoint_grid(stream->total(), config.checkpoints), control);
          r.seed = seed;
          r.algorithm = spec.display();
          runs[task.spec][task.trial] = std::move(r);
        } catch (const CancelledError& e) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          cancel_message = e.what();
        } catch (const std::exception& e) {
          // Any escape would hit parallel_for's no-throw contract and
          // terminate; downstream-registered builders may throw more than
          // SpecError.
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed) error = e.what();
          failed = true;
        }
      },
      config.threads, config.cancel);
  if (config.cancel.cancelled())
    throw CancelledError(!cancel_message.empty()
                             ? cancel_message
                             : std::string("experiment cancelled"));
  if (failed) throw SpecError(error);

  // Average each spec's trials, in trial order.
  std::vector<RunResult> out;
  out.reserve(specs.size());
  for (const std::vector<RunResult>& trials : runs)
    out.push_back(average_runs(trials));
  return out;
}

}  // namespace

std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const trace::Trace& trace,
                                      const std::vector<ExperimentSpec>& specs) {
  if (trace.empty()) throw SpecError("empty trace: nothing to replay");
  return run_tasks(config, specs, &trace, [&trace] {
    return std::make_unique<trace::MaterializedStream>(trace);
  });
}

std::vector<RunResult> run_experiment(const ExperimentConfig& config,
                                      const StreamFactory& make_stream,
                                      const std::vector<ExperimentSpec>& specs) {
  RDCN_ASSERT_MSG(make_stream != nullptr, "null stream factory");
  return run_tasks(config, specs, /*full_trace=*/nullptr, make_stream);
}

}  // namespace rdcn::sim
