#include "core/so_bma.hpp"

#include "common/flat_hash.hpp"
#include "core/static_bmatching.hpp"

namespace rdcn::core {

SoBma::SoBma(const Instance& inst, const trace::Trace& full_trace,
             const SoBmaOptions& options)
    : OnlineBMatcher(inst) {
  RDCN_ASSERT_MSG(full_trace.num_racks() <= inst.num_racks(),
                  "trace universe exceeds instance");
  // Aggregate demand.
  FlatMap<std::uint64_t> counts(full_trace.size() / 4 + 16);
  for (const Request& r : full_trace) ++counts[pair_key(r)];

  std::vector<WeightedEdge> edges;
  edges.reserve(counts.size());
  counts.for_each([&](std::uint64_t key, std::uint64_t cnt) {
    const std::uint64_t d = inst.dist(pair_lo(key), pair_hi(key));
    if (d > 1) edges.push_back({key, cnt * (d - 1)});
  });

  const std::size_t cap = inst.offline_degree();
  std::vector<std::uint64_t> chosen =
      greedy_b_matching(inst.num_racks(), cap, edges);
  if (options.local_search) {
    chosen = local_search_b_matching(inst.num_racks(), cap, edges,
                                     std::move(chosen),
                                     options.local_search_passes);
  }
  for (std::uint64_t key : chosen) {
    // Note: installation is bounded by offline_degree() <= b, so the
    // online matching structure (cap b) always accepts it.
    add_matching_edge(pair_lo(key), pair_hi(key));
  }

  // Freeze membership into a dense bitset (the matching never changes
  // again).  Both orientations are set so the serve loop needs no min/max.
  const std::size_t n = inst.num_racks();
  if (n * n <= std::size_t{64} << 20) {  // cap the table at 8 MiB
    matched_bits_.assign((n * n + 63) / 64, 0);
    for (std::uint64_t key : chosen) {
      const std::size_t u = pair_lo(key), v = pair_hi(key);
      matched_bits_[(u * n + v) >> 6] |= std::uint64_t{1} << ((u * n + v) & 63);
      matched_bits_[(v * n + u) >> 6] |= std::uint64_t{1} << ((v * n + u) & 63);
    }
  }
}

void SoBma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  if (!matched_bits_.empty()) {
    const std::uint64_t* bits = matched_bits_.data();
    const std::size_t n = instance().num_racks();
    for (const Request& r : batch) {
      RDCN_DCHECK(r.u != r.v);
      const std::size_t idx = static_cast<std::size_t>(r.u) * n + r.v;
      const bool matched = (bits[idx >> 6] >> (idx & 63)) & 1;
      RDCN_DCHECK(matched == matching_view().has(r.u, r.v));
      acc.routing_cost += matched ? 1 : dist(r.u, r.v);
      ++acc.requests;
      acc.direct_serves += matched ? 1 : 0;
    }
  } else {
    const BMatching& m = matching_view();
    for (const Request& r : batch) {
      RDCN_DCHECK(r.u != r.v);
      const bool matched = m.has(r.u, r.v);
      acc.routing_cost += matched ? 1 : dist(r.u, r.v);
      ++acc.requests;
      acc.direct_serves += matched ? 1 : 0;
    }
  }
  commit_routing(acc);
}

}  // namespace rdcn::core
