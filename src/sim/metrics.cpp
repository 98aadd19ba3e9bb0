#include "sim/metrics.hpp"

namespace rdcn::sim {

RunResult average_runs(const std::vector<RunResult>& runs) {
  RDCN_ASSERT_MSG(!runs.empty(), "cannot average zero runs");
  RunResult avg = runs.front();
  const std::size_t points = avg.checkpoints.size();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    RDCN_ASSERT_MSG(runs[i].checkpoints.size() == points,
                    "checkpoint grids differ between runs");
  }
  for (std::size_t p = 0; p < points; ++p) {
    // Accumulate in double to avoid overflow, round back at the end.
    double routing = 0, reconfig = 0, total = 0, direct = 0, adds = 0,
           removals = 0, msize = 0, wall = 0;
    for (const RunResult& r : runs) {
      const Checkpoint& c = r.checkpoints[p];
      RDCN_ASSERT(c.requests == avg.checkpoints[p].requests);
      routing += static_cast<double>(c.routing_cost);
      reconfig += static_cast<double>(c.reconfig_cost);
      total += static_cast<double>(c.total_cost);
      direct += static_cast<double>(c.direct_serves);
      adds += static_cast<double>(c.edge_adds);
      removals += static_cast<double>(c.edge_removals);
      msize += static_cast<double>(c.matching_size);
      wall += c.wall_seconds;
    }
    const double k = static_cast<double>(runs.size());
    Checkpoint& c = avg.checkpoints[p];
    c.routing_cost = static_cast<std::uint64_t>(routing / k + 0.5);
    c.reconfig_cost = static_cast<std::uint64_t>(reconfig / k + 0.5);
    c.total_cost = static_cast<std::uint64_t>(total / k + 0.5);
    c.direct_serves = static_cast<std::uint64_t>(direct / k + 0.5);
    c.edge_adds = static_cast<std::uint64_t>(adds / k + 0.5);
    c.edge_removals = static_cast<std::uint64_t>(removals / k + 0.5);
    c.matching_size = static_cast<std::size_t>(msize / k + 0.5);
    c.wall_seconds = wall / k;
  }
  avg.seed = 0;
  return avg;
}

}  // namespace rdcn::sim
