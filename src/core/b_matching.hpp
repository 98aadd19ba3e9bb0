// rdcn: dynamic b-matching — the set M of reconfigurable optical links.
//
// Invariant (the feasibility constraint of §1.1): every rack has at most
// `degree_cap` incident matching edges.  Membership queries are on the
// per-request hot path (every routed request asks "is {s,t} matched?"),
// so edges live in a flat hash set keyed by the canonical 64-bit pair id,
// with per-rack adjacency in small inline vectors for O(b) neighbor scans.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/simd.hpp"
#include "common/small_vector.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class BMatching {
 public:
  BMatching(std::size_t num_racks, std::size_t degree_cap)
      : adjacency_(num_racks), degree_cap_(degree_cap) {
    RDCN_ASSERT_MSG(degree_cap >= 1, "degree cap must be at least 1");
  }

  std::size_t num_racks() const noexcept { return adjacency_.size(); }
  std::size_t degree_cap() const noexcept { return degree_cap_; }
  std::size_t size() const noexcept { return edges_.size(); }

  bool has(Rack u, Rack v) const noexcept {
    RDCN_DCHECK(u < adjacency_.size() && v < adjacency_.size());
    // Up to degree 16 the adjacency row is a single cache line of rack
    // ids, so a (SIMD) linear scan beats a hash probe on the per-request
    // membership check; the edge set answers the large-b case.  This row
    // scan is shared machinery: r_bma's and so_bma's batch loops, greedy,
    // and rotor all route their membership checks through it.
    if (degree_cap_ <= 16) {
      const SmallVector<Rack, 8>& row = adjacency_[u];
      return simd::find_u32(row.data(), row.size(), v) != simd::kNpos;
    }
    return edges_.contains(pair_key(u, v));
  }
  bool has_key(std::uint64_t key) const noexcept {
    return edges_.contains(key);
  }

  std::size_t degree(Rack u) const noexcept {
    RDCN_DCHECK(u < adjacency_.size());
    return adjacency_[u].size();
  }

  bool full(Rack u) const noexcept { return degree(u) >= degree_cap_; }

  /// Neighbors of u in M (unordered).
  const SmallVector<Rack, 8>& neighbors(Rack u) const noexcept {
    RDCN_DCHECK(u < adjacency_.size());
    return adjacency_[u];
  }

  /// Adds {u,v}; asserts the edge is absent and both degrees are below cap.
  void add(Rack u, Rack v) {
    RDCN_DCHECK(u != v && u < num_racks() && v < num_racks());
    RDCN_ASSERT_MSG(!full(u) && !full(v),
                    "b-matching degree cap would be violated");
    const bool fresh = edges_.insert(pair_key(u, v));
    RDCN_ASSERT_MSG(fresh, "edge already in matching");
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
  }

  /// Removes {u,v}; asserts presence.
  void remove(Rack u, Rack v) {
    const bool was = edges_.erase(pair_key(u, v));
    RDCN_ASSERT_MSG(was, "removing an edge not in the matching");
    const bool ru = adjacency_[u].erase_value(v);
    const bool rv = adjacency_[v].erase_value(u);
    RDCN_ASSERT(ru && rv);
  }

  /// All matching edges as canonical pair keys (order unspecified).
  std::vector<std::uint64_t> edge_keys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(edges_.size());
    edges_.for_each([&](std::uint64_t k) { keys.push_back(k); });
    return keys;
  }

  /// Full consistency audit: degree caps respected, adjacency symmetric,
  /// adjacency consistent with the edge set.  O(n·b); test/debug use.
  bool check_invariants() const;

 private:
  FlatSet edges_;
  std::vector<SmallVector<Rack, 8>> adjacency_;
  std::size_t degree_cap_;
};

}  // namespace rdcn::core
