// Shared helpers for the rdcn test suites.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"
#include "net/distance_matrix.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

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
  const std::unordered_set<std::uint64_t> matched(edges.begin(), edges.end());
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
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t k : edges) {
    const core::Rack lo = core::pair_lo(k), hi = core::pair_hi(k);
    if (lo >= hi || hi >= num_racks) return false;
    if (!seen.insert(k).second) return false;  // duplicate edge
    if (++degree[lo] > cap || ++degree[hi] > cap) return false;
  }
  return true;
}

/// Drains `stream` with pulls of `chunk` requests.
inline std::vector<trace::Request> drain(trace::TraceStream& stream,
                                         std::size_t chunk) {
  std::vector<trace::Request> got;
  std::vector<trace::Request> buffer(chunk);
  while (true) {
    const std::size_t k = stream.next(buffer.data(), buffer.size());
    if (k == 0) break;
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return got;
}

}  // namespace rdcn::testing
