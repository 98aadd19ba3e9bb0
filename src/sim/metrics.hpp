// rdcn: measurement records produced by the simulator.
//
// A run is summarized as a series of checkpoints — cumulative cost and
// wall-clock snapshots at increasing request counts — which is exactly the
// x/y structure of the paper's figures (routing cost vs #requests,
// execution time vs #requests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace rdcn::sim {

struct Checkpoint {
  std::uint64_t requests = 0;
  std::uint64_t routing_cost = 0;
  std::uint64_t reconfig_cost = 0;
  std::uint64_t total_cost = 0;
  std::uint64_t direct_serves = 0;
  std::uint64_t edge_adds = 0;
  std::uint64_t edge_removals = 0;
  std::size_t matching_size = 0;
  double wall_seconds = 0.0;  ///< algorithm time only (serve_batch calls)
};

struct RunResult {
  std::string algorithm;
  std::string trace_name;
  std::size_t b = 0;
  std::uint64_t seed = 0;
  std::vector<Checkpoint> checkpoints;

  const Checkpoint& final() const {
    RDCN_ASSERT(!checkpoints.empty());
    return checkpoints.back();
  }
};

/// Mean of several runs (same checkpoint grid required); used for the
/// paper's "each simulation is repeated five times and averaged".
RunResult average_runs(const std::vector<RunResult>& runs);

}  // namespace rdcn::sim
