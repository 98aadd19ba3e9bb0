// rdcn: exact dynamic offline optimum for tiny instances.
//
// State-space dynamic program over all feasible a-matchings of the rack
// set: dp[s] = cheapest way to serve the prefix and end in matching state
// s.  Per request, the transition serves with the *current* state (the
// §1.1 ordering: route first, then reconfigure) and then moves to any
// feasible state, paying α per edge flipped.
//
// Exponential in the number of rack pairs — usable for n <= 6 — and the
// ground truth behind the empirical competitive-ratio tests
// (tests/competitive_test.cpp, tests/opt_small_test.cpp).
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "trace/trace.hpp"

namespace rdcn::core {

/// Exact optimal total cost (routing + reconfiguration) for serving
/// `trace` with a dynamic matching of maximum degree
/// instance.offline_degree().  OPT may install an initial matching before
/// the first request at α per edge (so it lower-bounds offline algorithms
/// like SO-BMA that pre-install).  Asserts num_racks <= 6.
std::uint64_t optimal_dynamic_cost(const Instance& instance,
                                   const trace::Trace& trace);

}  // namespace rdcn::core
