// rdcn: dynamic b-matching — the set M of reconfigurable optical links.
//
// Invariant (the feasibility constraint of §1.1): every rack has at most
// `degree_cap` incident matching edges.  Membership queries are on the
// per-request hot path (every routed request asks "is {s,t} matched?"),
// so membership is an n×n bitset: bit u·n+v is set iff {u,v} ∈ M, in
// both orientations.  A query is a single bit test at every b, with no
// min/max and no triangular index, and n racks cost n² bits (122 KiB at
// 1000 racks).  Per-rack adjacency lives in small inline vectors for
// O(b) neighbor scans; it is also how the edges are enumerated.
#pragma once

#include <cstdint>
#include <vector>

#include "common/small_vector.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class BMatching {
 public:
  BMatching(std::size_t num_racks, std::size_t degree_cap)
      : member_((num_racks * num_racks + 63) / 64),
        adjacency_(num_racks),
        racks_(num_racks),
        degree_cap_(degree_cap) {
    RDCN_ASSERT_MSG(degree_cap >= 1, "degree cap must be at least 1");
  }

  std::size_t num_racks() const noexcept { return racks_; }
  std::size_t degree_cap() const noexcept { return degree_cap_; }
  std::size_t size() const noexcept { return size_; }

  bool has(Rack u, Rack v) const noexcept {
    RDCN_DCHECK(u < racks_ && v < racks_);
    const std::size_t bit = u * racks_ + v;
    return (member_[bit / 64] >> (bit % 64)) & 1;
  }
  bool has_key(std::uint64_t key) const noexcept {
    return has(pair_lo(key), pair_hi(key));
  }

  std::size_t degree(Rack u) const noexcept {
    RDCN_DCHECK(u < racks_);
    return adjacency_[u].size();
  }

  bool full(Rack u) const noexcept { return degree(u) >= degree_cap_; }

  /// Neighbors of u in M (unordered).
  const SmallVector<Rack, 8>& neighbors(Rack u) const noexcept {
    RDCN_DCHECK(u < racks_);
    return adjacency_[u];
  }

  /// Adds {u,v}; asserts the edge is absent and both degrees are below cap.
  void add(Rack u, Rack v) {
    RDCN_DCHECK(u != v && u < racks_ && v < racks_);
    RDCN_ASSERT_MSG(!full(u) && !full(v),
                    "b-matching degree cap would be violated");
    RDCN_ASSERT_MSG(!has(u, v), "edge already in matching");
    flip(u, v);
    ++size_;
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
  }

  /// Removes {u,v}; asserts presence.
  void remove(Rack u, Rack v) {
    RDCN_ASSERT_MSG(has(u, v), "removing an edge not in the matching");
    flip(u, v);
    --size_;
    const bool ru = adjacency_[u].erase_value(v);
    const bool rv = adjacency_[v].erase_value(u);
    RDCN_ASSERT(ru && rv);
  }

  /// All matching edges as canonical pair keys (order unspecified).
  std::vector<std::uint64_t> edge_keys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(size_);
    for (Rack u = 0; u < racks_; ++u)
      for (const Rack v : adjacency_[u])
        if (u < v) keys.push_back(pair_key(u, v));
    return keys;
  }

  /// Full consistency audit: degree caps respected, adjacency symmetric
  /// and duplicate-free, and the membership bits equal to the adjacency
  /// in both orientations.  O(n·b + n²/64); test/debug use.
  bool check_invariants() const;

 private:
  void flip(Rack u, Rack v) noexcept {
    const std::size_t uv = u * racks_ + v, vu = v * racks_ + u;
    member_[uv / 64] ^= std::uint64_t{1} << (uv % 64);
    member_[vu / 64] ^= std::uint64_t{1} << (vu % 64);
  }

  std::vector<std::uint64_t> member_;  ///< bits u·n+v and v·n+u iff {u,v} ∈ M
  std::vector<SmallVector<Rack, 8>> adjacency_;
  std::size_t racks_;
  std::size_t degree_cap_;
  std::size_t size_ = 0;
};

}  // namespace rdcn::core
