// rdcn: all-pairs rack-to-rack distance matrix.
//
// The cost model only ever asks "how many hops between rack s and rack t on
// the fixed network" (ℓe in the paper), so distances are precomputed once
// per topology by BFS from every rack and stored densely as uint16.  For the
// paper's scales (n = 50..100 racks) the matrix is a few KB and lookups are
// a single indexed load.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "net/graph.hpp"

namespace rdcn::net {

class DistanceMatrix {
 public:
  DistanceMatrix() = default;

  /// Computes rack-to-rack distances on `g`.  `racks[i]` is the graph vertex
  /// hosting logical rack i; logical ids 0..racks.size()-1 are what the
  /// matching layer uses.
  DistanceMatrix(const Graph& g, const std::vector<NodeId>& racks);

  /// Uniform matrix: every pair at distance `dist` (the paper's uniform
  /// case has ℓe = 1 for all pairs).
  static DistanceMatrix uniform(std::size_t num_racks, std::uint16_t dist);

  std::size_t num_racks() const noexcept { return n_; }

  std::uint16_t operator()(std::uint32_t a, std::uint32_t b) const noexcept {
    RDCN_DCHECK(a < n_ && b < n_);
    return d_[static_cast<std::size_t>(a) * n_ + b];
  }

  std::uint16_t max_distance() const noexcept { return max_; }

  /// Mean off-diagonal distance (used in workload/report analytics).
  double mean_distance() const;

 private:
  std::size_t n_ = 0;
  std::uint16_t max_ = 0;
  std::vector<std::uint16_t> d_;
};

}  // namespace rdcn::net
