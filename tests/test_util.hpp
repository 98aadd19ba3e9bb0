// Shared helpers for the rdcn test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "core/types.hpp"
#include "net/distance_matrix.hpp"
#include "trace/trace.hpp"

namespace rdcn::testing {

/// Builds a core::Instance over `d` with online degree bound b,
/// reconfiguration cost α, and optional offline degree bound a (0 = "a=b").
/// `d` must outlive the returned instance (it is captured by pointer).
inline core::Instance make_instance(const net::DistanceMatrix& d,
                                    std::size_t b, std::uint64_t alpha,
                                    std::size_t a = 0) {
  core::Instance inst;
  inst.distances = &d;
  inst.b = b;
  inst.a = a;
  inst.alpha = alpha;
  return inst;
}

// Standalone cost evaluators: price a hypothetical solution (a static
// matching) under the §1.1 cost model without running an online algorithm,
// as an independent check on the matchers' ledgers.

/// Routing cost of serving `trace` with a fixed (never reconfigured)
/// matching given as canonical pair keys.  Does not include installation.
inline std::uint64_t static_routing_cost(
    const core::Instance& instance, const trace::Trace& trace,
    const std::vector<std::uint64_t>& edges) {
  FlatSet matched(edges.size());
  for (std::uint64_t k : edges) matched.insert(k);
  std::uint64_t cost = 0;
  for (const trace::Request& r : trace)
    cost += matched.contains(pair_key(r)) ? 1 : instance.dist(r.u, r.v);
  return cost;
}

/// Total cost of a static solution: α per installed edge + routing.
inline std::uint64_t static_total_cost(
    const core::Instance& instance, const trace::Trace& trace,
    const std::vector<std::uint64_t>& edges) {
  return static_routing_cost(instance, trace, edges) +
         instance.alpha * edges.size();
}

/// Oblivious cost: every request on the fixed network (the paper's violet
/// baseline).
inline std::uint64_t oblivious_cost(const core::Instance& instance,
                                    const trace::Trace& trace) {
  std::uint64_t cost = 0;
  for (const trace::Request& r : trace) cost += instance.dist(r.u, r.v);
  return cost;
}

/// True iff `edges` forms a feasible matching of maximum degree <= cap.
inline bool is_feasible_b_matching(std::size_t num_racks, std::size_t cap,
                                   const std::vector<std::uint64_t>& edges) {
  std::vector<std::size_t> degree(num_racks, 0);
  FlatSet seen(edges.size());
  for (std::uint64_t k : edges) {
    const core::Rack lo = core::pair_lo(k), hi = core::pair_hi(k);
    if (lo >= hi || hi >= num_racks) return false;
    if (!seen.insert(k)) return false;  // duplicate edge
    if (++degree[lo] > cap || ++degree[hi] > cap) return false;
  }
  return true;
}

}  // namespace rdcn::testing
