#include "exact_b_matching.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/assert.hpp"

namespace rdcn::core {

std::vector<std::uint64_t> exact_b_matching(
    std::size_t num_racks, std::size_t degree_cap,
    const std::vector<WeightedEdge>& edges) {
  RDCN_ASSERT_MSG(edges.size() <= 24, "exact solver: too many edges");
  const std::size_t m = edges.size();
  std::uint64_t best_weight = 0;
  std::uint32_t best_mask = 0;
  std::vector<std::size_t> degree(num_racks);
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    std::fill(degree.begin(), degree.end(), 0);
    std::uint64_t w = 0;
    bool feasible = true;
    for (std::size_t i = 0; i < m && feasible; ++i) {
      if (!(mask & (1u << i))) continue;
      const std::uint64_t key = edges[i].key;
      if (++degree[pair_lo(key)] > degree_cap ||
          ++degree[pair_hi(key)] > degree_cap)
        feasible = false;
      w += edges[i].weight;
    }
    if (feasible && w > best_weight) {
      best_weight = w;
      best_mask = mask;
    }
  }
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < m; ++i)
    if (best_mask & (1u << i)) out.push_back(edges[i].key);
  return out;
}

std::uint64_t matching_weight(const std::vector<std::uint64_t>& matching,
                              const std::vector<WeightedEdge>& edges) {
  std::unordered_map<std::uint64_t, std::uint64_t> weight_of;
  for (const WeightedEdge& e : edges) weight_of[e.key] = e.weight;
  std::uint64_t total = 0;
  for (std::uint64_t k : matching) {
    const auto it = weight_of.find(k);
    if (it != weight_of.end()) total += it->second;
  }
  return total;
}

}  // namespace rdcn::core
