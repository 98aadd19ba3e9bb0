#include "core/bma.hpp"

namespace rdcn::core {

void Bma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    // One-request lookahead (only a batch knows its future): pull the next
    // request's incident row columns toward the cache while the current
    // scans run.  Advisory only — no semantic effect.
    if (i + 1 < batch.size()) {
      const Request& next = batch[i + 1];
      rows_.prefetch(next.u);
      rows_.prefetch(next.v);
    }
    RDCN_DCHECK(r.u != r.v);
    ++clock_;
    const std::uint64_t key = pair_key(r);
    // Request-path bookkeeping (see header): every request can change the
    // usage ranking at its endpoints (a direct serve bumps the served edge;
    // a fixed-network serve moves a pair toward admission), so the reference
    // implementation refreshes the eviction candidate at both endpoints on
    // every request.  This is the Θ(b) component of BMA's per-request cost.
    RDCN_DCHECK(rows_.size(r.u) == matching_view().degree(r.u));
    RDCN_DCHECK(rows_.size(r.v) == matching_view().degree(r.v));
    const RackRows::ScanResult su = rows_.scan(r.u, key);
    const RackRows::ScanResult sv = rows_.scan(r.v, key);
    ++acc.requests;
    // The rack rows mirror the matching adjacency (both mutate only at
    // admission/eviction), so the pair is matched iff a scan found its key
    // — the verdict matching().has() would return, without a second
    // load.  The scans read but never mutate the matching, so routing
    // still sees the pre-reconfiguration state the cost model prescribes.
    RDCN_DCHECK((su.request_index != RackRows::kNone) ==
                matching_view().has(r.u, r.v));
    if (su.request_index != RackRows::kNone) {
      acc.routing_cost += 1;
      ++acc.direct_serves;
      rows_.bump_usage(r.u, su.request_index);
      rows_.bump_usage(r.v, sv.request_index);
      continue;
    }
    const std::uint64_t d = dist(r.u, r.v);
    acc.routing_cost += d;
    charge_and_maybe_admit(r, key, d, su.victim_key, sv.victim_key);
  }
  commit_routing(acc);
}

void Bma::charge_and_maybe_admit(const Request& r, std::uint64_t key,
                                 std::uint64_t d, std::uint64_t victim_u,
                                 std::uint64_t victim_v) {
  std::uint64_t& charge = charges_[pair_slot(key)];
  charge += d;
  if (charge < alpha()) return;

  // The pair has paid α in fixed-network routing: admit it.  It is
  // unmatched, so an eviction at one endpoint removes an edge that is not
  // in the other endpoint's row, and both scanned victims stay current.
  charge = 0;
  if (matching_view().full(r.u)) evict(victim_u);
  if (matching_view().full(r.v)) evict(victim_v);
  add_matching_edge(r.u, r.v);
  rows_.admit(r.u, key, clock_);
  rows_.admit(r.v, key, clock_);
}

void Bma::evict(std::uint64_t victim) {
  // A scan of an empty row yields 0, which is never a pair key.
  RDCN_ASSERT_MSG(victim != 0, "evict on rack with no matching edges");
  RDCN_DCHECK(matching_view().has_key(victim));
  remove_matching_edge_key(victim);
  [[maybe_unused]] const bool lo = rows_.evict(pair_lo(victim), victim);
  [[maybe_unused]] const bool hi = rows_.evict(pair_hi(victim), victim);
  RDCN_DCHECK(lo && hi);
}

bool Bma::check_rows() const {
  const BMatching& m = matching();
  for (Rack w = 0; w < m.num_racks(); ++w) {
    if (rows_.size(w) != m.degree(w)) return false;
    for (const Rack x : m.neighbors(w)) {
      const std::uint64_t key = pair_key(w, x);
      const RankedRow& here = rows_.row(w);
      const RankedRow& there = rows_.row(x);
      const std::size_t i = here.find(key);
      const std::size_t j = there.find(key);
      if (i == RackRows::kNone || j == RackRows::kNone ||
          here.rank(i) != there.rank(j))
        return false;
    }
  }
  return true;
}

}  // namespace rdcn::core
