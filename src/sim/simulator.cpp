#include "sim/simulator.hpp"

#include <algorithm>
#include <span>

#include "common/param_map.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace rdcn::sim {

std::vector<std::uint64_t> checkpoint_grid(std::uint64_t total_requests,
                                           std::size_t points) {
  if (points == 0) throw SpecError("checkpoints must be positive");
  if (total_requests < points)
    throw SpecError("the trace has " + std::to_string(total_requests) +
                    " requests, fewer than the " + std::to_string(points) +
                    " checkpoints");
  std::vector<std::uint64_t> grid;
  grid.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    grid.push_back(total_requests * i / points);
  }
  return grid;
}

namespace {

/// Chunk-loop throughput counters (process-wide registry).  Bumped once
/// per kServeChunk, so the cost is two striped relaxed adds per 4096
/// requests.
struct SimCounters {
  obs::Counter& chunks;
  obs::Counter& requests;

  static SimCounters& get() {
    static SimCounters c{
        obs::Registry::global().counter("rdcn_sim_chunks_total",
                                        "Serve chunks executed"),
        obs::Registry::global().counter("rdcn_sim_requests_total",
                                        "Requests served by the chunk loop")};
    return c;
  }
};

/// Captures the matcher's cumulative ledger as one checkpoint row.
struct Snapshotter {
  core::OnlineBMatcher& matcher;
  Stopwatch& watch;
  RunResult& result;
  const RunControl& control;
  std::size_t next_cp = 0;

  void snapshot(std::uint64_t served) {
    const core::CostStats& costs = matcher.costs();
    Checkpoint c;
    c.requests = served;
    c.routing_cost = costs.routing_cost;
    c.reconfig_cost = costs.reconfig_cost;
    c.total_cost = costs.total_cost();
    c.direct_serves = costs.direct_serves;
    c.edge_adds = costs.edge_adds;
    c.edge_removals = costs.edge_removals;
    c.matching_size = matcher.matching().size();
    c.wall_seconds = watch.seconds();
    result.checkpoints.push_back(c);
    ++next_cp;
    // snapshot() runs with the clock paused (or before it starts), so the
    // streaming hook never pollutes the wall-clock measurement.
    if (control.on_checkpoint) control.on_checkpoint(c);
  }
};

}  // namespace

RunResult run_simulation(core::OnlineBMatcher& matcher,
                         trace::TraceStream& stream,
                         std::vector<std::uint64_t> checkpoints,
                         const RunControl& control) {
  RDCN_ASSERT_MSG(stream.produced() == 0,
                  "run_simulation needs an unconsumed stream");
  RDCN_ASSERT_MSG(!checkpoints.empty(), "need at least one checkpoint");
  RDCN_ASSERT_MSG(std::is_sorted(checkpoints.begin(), checkpoints.end()),
                  "checkpoints must be non-decreasing");
  const std::uint64_t total = stream.total();
  checkpoints.back() = std::min<std::uint64_t>(checkpoints.back(), total);

  RunResult result;
  result.algorithm = matcher.name();
  result.trace_name = stream.name();
  result.b = matcher.instance().b;
  result.checkpoints.reserve(checkpoints.size());

  // Scratch is allocated (and the chunk loop's working set decided) before
  // the clock starts.  It holds one production block; [used, have) is the
  // part not yet served.
  std::vector<trace::Request> scratch(static_cast<std::size_t>(
      std::min<std::uint64_t>(kProduceBlock,
                              std::max<std::uint64_t>(checkpoints.back(), 1))));
  std::size_t have = 0;
  std::size_t used = 0;

  Stopwatch watch;
  watch.reset();
  Snapshotter snap{matcher, watch, result, control};
  // A checkpoint at 0 snapshots the pre-trace state; this is also how an
  // empty trace yields a (zero-cost) ledger.
  while (snap.next_cp < checkpoints.size() &&
         checkpoints[snap.next_cp] == 0) {
    snap.snapshot(0);
  }

  SimCounters& sim_counters = SimCounters::get();
  std::uint64_t served = 0;
  while (snap.next_cp < checkpoints.size()) {
    const std::uint64_t target = checkpoints[snap.next_cp];
    RDCN_ASSERT_MSG(target <= total, "trace shorter than checkpoint grid");
    // Serve up to the next grid point in chunks clipped at the boundary:
    // the final chunk before a checkpoint shrinks so no request beyond it
    // is served before the snapshot.
    while (served < target) {
      // Cooperative cancellation: checked once per chunk, so a cancelled
      // run stops within one kServeChunk boundary of the request.
      if (control.cancel.cancelled())
        throw CancelledError("run cancelled after " + std::to_string(served) +
                             " of " + std::to_string(total) + " requests");
      if (used == have) {
        // Request production (a copy out of a materialized trace, or
        // generation) is not matcher work: off the wall clock, traced as
        // its own phase.  Never past the last checkpoint.
        obs::ObsSpan span("sim.generate");
        watch.pause();
        have = stream.next(scratch.data(),
                           static_cast<std::size_t>(std::min<std::uint64_t>(
                               scratch.size(), checkpoints.back() - served)));
        used = 0;
        RDCN_ASSERT_MSG(have != 0, "trace stream ended before its total()");
        watch.resume();
      }
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>({kServeChunk, target - served, have - used}));
      {
        obs::ObsSpan span("sim.serve");
        matcher.serve_batch(
            std::span<const trace::Request>(scratch.data() + used, chunk));
      }
      used += chunk;
      served += chunk;
      sim_counters.chunks.inc();
      sim_counters.requests.add(chunk);
    }
    while (snap.next_cp < checkpoints.size() &&
           checkpoints[snap.next_cp] == served) {
      obs::ObsSpan span("sim.checkpoint");
      watch.pause();
      snap.snapshot(served);
      watch.resume();
    }
  }
  return result;
}

RunResult run_simulation(core::OnlineBMatcher& matcher,
                         const trace::Trace& trace,
                         std::vector<std::uint64_t> checkpoints,
                         const RunControl& control) {
  trace::MaterializedStream stream(trace);
  return run_simulation(matcher, stream, std::move(checkpoints), control);
}

RunResult run_to_completion(core::OnlineBMatcher& matcher,
                            const trace::Trace& trace) {
  return run_simulation(matcher, trace, {trace.size()});
}

RunResult run_to_completion(core::OnlineBMatcher& matcher,
                            trace::TraceStream& stream) {
  return run_simulation(matcher, stream, {stream.total()});
}

}  // namespace rdcn::sim
