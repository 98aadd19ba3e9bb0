// Reference replay in one-request batches: one serve() call per request.
// The batch differential suites hold sim::run_simulation's chunked loop to
// it (ledgers must be bit-identical at every checkpoint), and it is one of
// the two batch splits every golden ledger anchor is checked on.
// Wall-clock time covers serve() only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "core/online_matcher.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"

namespace rdcn::testing {

/// Replays `trace` through a fresh `matcher` one request at a time,
/// snapshotting the cumulative ledger at each of `checkpoints`
/// (non-decreasing; the last entry is clamped to trace.size(); 0 snapshots
/// the pre-trace state).
inline sim::RunResult run_simulation_scalar(
    core::OnlineBMatcher& matcher, const trace::Trace& trace,
    std::vector<std::uint64_t> checkpoints) {
  RDCN_ASSERT_MSG(!checkpoints.empty(), "need at least one checkpoint");
  RDCN_ASSERT_MSG(std::is_sorted(checkpoints.begin(), checkpoints.end()),
                  "checkpoints must be non-decreasing");
  checkpoints.back() =
      std::min<std::uint64_t>(checkpoints.back(), trace.size());

  sim::RunResult result;
  result.algorithm = matcher.name();
  result.trace_name = trace.name();
  result.b = matcher.instance().b;
  result.checkpoints.reserve(checkpoints.size());

  Stopwatch watch;
  watch.reset();
  std::size_t next_cp = 0;
  // Snapshots every grid point equal to `served`, with the clock paused.
  auto snapshot_at = [&](std::uint64_t served) {
    if (next_cp == checkpoints.size() || checkpoints[next_cp] != served)
      return;
    watch.pause();
    for (; next_cp < checkpoints.size() && checkpoints[next_cp] == served;
         ++next_cp) {
      const core::CostStats& costs = matcher.costs();
      sim::Checkpoint c;
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
    }
    watch.resume();
  };
  snapshot_at(0);
  for (std::size_t i = 0; i < trace.size() && next_cp < checkpoints.size();
       ++i) {
    matcher.serve(trace[i]);
    snapshot_at(i + 1);
  }
  RDCN_ASSERT_MSG(next_cp == checkpoints.size(),
                  "trace shorter than checkpoint grid");
  return result;
}

}  // namespace rdcn::testing
