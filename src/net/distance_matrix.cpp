#include "net/distance_matrix.hpp"

#include <algorithm>

namespace rdcn::net {

DistanceMatrix::DistanceMatrix(const Graph& g,
                               const std::vector<NodeId>& racks)
    : n_(racks.size()),
      d_(racks.size() * racks.size(), 0) {
  RDCN_ASSERT_MSG(g.finalized(), "graph must be finalized");
  std::vector<std::uint16_t> dist;
  for (std::size_t i = 0; i < n_; ++i) {
    g.bfs(racks[i], dist);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::uint16_t dij = dist[racks[j]];
      RDCN_ASSERT_MSG(dij != Graph::kUnreachable,
                      "fixed network must connect all racks");
      d_[i * n_ + j] = dij;
      if (i != j) max_ = std::max(max_, dij);
    }
  }
}

DistanceMatrix DistanceMatrix::uniform(std::size_t num_racks,
                                       std::uint16_t dist) {
  DistanceMatrix m;
  m.n_ = num_racks;
  m.d_.assign(num_racks * num_racks, dist);
  for (std::size_t i = 0; i < num_racks; ++i) m.d_[i * num_racks + i] = 0;
  m.max_ = num_racks > 1 ? dist : 0;
  return m;
}

double DistanceMatrix::mean_distance() const {
  if (n_ < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j < n_; ++j)
      if (i != j) sum += d_[i * n_ + j];
  return sum / (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

}  // namespace rdcn::net
