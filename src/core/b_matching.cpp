#include "core/b_matching.hpp"

#include <bit>

namespace rdcn::core {

bool BMatching::check_invariants() const {
  std::size_t adjacency_entries = 0;
  for (Rack u = 0; u < num_racks(); ++u) {
    const auto& adj = adjacency_[u];
    if (adj.size() > degree_cap_) return false;
    adjacency_entries += adj.size();
    for (std::size_t i = 0; i < adj.size(); ++i) {
      const Rack v = adj[i];
      if (v == u || v >= num_racks()) return false;
      if (!has(u, v)) return false;
      if (!adjacency_[v].contains(u)) return false;
      // No duplicate neighbor entries.
      for (std::size_t j = i + 1; j < adj.size(); ++j)
        if (adj[j] == v) return false;
    }
  }
  // Every adjacency entry has its bit (one per orientation), so equal
  // counts leave no stray bit.
  std::size_t bits = 0;
  for (const std::uint64_t word : member_) bits += std::popcount(word);
  return bits == 2 * size_ && adjacency_entries == 2 * size_;
}

}  // namespace rdcn::core
