// rdcn: exact maximum-weight b-matching for tiny graphs (test oracle).
//
// The offline comparators build each window's matching greedily
// (core::greedy_b_matching, a 1/2-approximation).  Exhaustive search over
// edge subsets is the ground truth the approximation tests compare it
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/offline_dynamic.hpp"

namespace rdcn::core {

/// Exact maximum-weight b-matching by exhaustive search (asserts
/// |edges| <= 24).
std::vector<std::uint64_t> exact_b_matching(
    std::size_t num_racks, std::size_t degree_cap,
    const std::vector<WeightedEdge>& edges);

/// Total weight of a matching under the given weights; keys without an
/// edge weigh 0.
std::uint64_t matching_weight(const std::vector<std::uint64_t>& matching,
                              const std::vector<WeightedEdge>& edges);

}  // namespace rdcn::core
