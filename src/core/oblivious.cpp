#include "core/oblivious.hpp"

namespace rdcn::core {

void Oblivious::serve_batch(std::span<const Request> batch) {
  RDCN_DCHECK(matching_view().size() == 0);
  RoutingDelta acc;
  // Oblivious routing is a pure distance reduction; integer sums are
  // associative, so the ledger does not depend on how the trace is split
  // into batches.
  for (const Request& r : batch) {
    RDCN_DCHECK(r.u != r.v);
    acc.routing_cost += dist(r.u, r.v);
  }
  acc.requests = batch.size();
  commit_routing(acc);
}

}  // namespace rdcn::core
