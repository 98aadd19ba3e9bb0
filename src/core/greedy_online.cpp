#include "core/greedy_online.hpp"

namespace rdcn::core {

void GreedyOnline::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const BMatching& m = matching_view();
  for (const Request& r : batch) {
    RDCN_DCHECK(r.u != r.v);
    const bool matched = m.has(r.u, r.v);
    const std::uint64_t dist_uv = dist(r.u, r.v);
    acc.routing_cost += matched ? 1 : dist_uv;
    ++acc.requests;
    acc.direct_serves += matched ? 1 : 0;
    if (!matched && !m.full(r.u) && !m.full(r.v) && dist_uv > 1) {
      add_matching_edge(r.u, r.v);
    }
  }
  commit_routing(acc);
}

}  // namespace rdcn::core
