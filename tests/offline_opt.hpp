// rdcn: exact offline paging optima for tiny universes (test oracles; the
// optimum at any scale is paging::Belady).
//
// * `brute_force_faults` — exponential DP over cache states, feasible only
//   for tiny universes; exists purely to cross-validate Belady in tests.
// * `optimal_faults_bypassing` — DP for the *bypassing* variant used by the
//   lower-bound construction (Lemma 1 / Epstein et al. remark): the
//   algorithm may serve a request without fetching, paying 1, or fetch,
//   paying 1; cost is fetches + bypassed faults.  For unit costs this
//   equals the non-bypassing optimum, but we keep the DP as executable
//   documentation of the equivalence.
#pragma once

#include <cstdint>
#include <vector>

#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

/// Exhaustive optimum; requires the universe of distinct keys to be tiny
/// (asserts #distinct <= 12 and capacity <= 4).
std::uint64_t brute_force_faults(std::size_t capacity,
                                 const std::vector<Key>& sequence);

/// Exhaustive optimum for paging *with bypassing* (serving a request
/// without fetching costs 1; fetching costs 1 and inserts).  Same size
/// limits as brute_force_faults.
std::uint64_t optimal_faults_bypassing(std::size_t capacity,
                                       const std::vector<Key>& sequence);

}  // namespace rdcn::paging
