#include "core/offline_dynamic.hpp"

#include <algorithm>

#include "common/flat_hash.hpp"
#include "common/param_map.hpp"
#include "core/static_bmatching.hpp"

namespace rdcn::core {

OfflineDynamic::OfflineDynamic(const Instance& inst,
                               const trace::Trace& full_trace,
                               const OfflineDynamicOptions& options)
    : OnlineBMatcher(inst), window_(options.window) {
  if (window_ == 0)
    throw SpecError(
        "algorithm 'offline_dynamic': parameter 'window' must be >= 1, got 0");
  const std::size_t cap = inst.offline_degree();
  const std::size_t num_windows =
      full_trace.empty() ? 0 : (full_trace.size() + window_ - 1) / window_;
  plans_.reserve(num_windows);

  const std::uint64_t bonus = static_cast<std::uint64_t>(
      options.retention_bonus * static_cast<double>(inst.alpha));

  FlatSet previous;
  for (std::size_t w = 0; w < num_windows; ++w) {
    const std::size_t begin = w * window_;
    const std::size_t end =
        std::min(full_trace.size(), begin + window_);
    // Window demand.
    FlatMap<std::uint64_t> counts;
    for (std::size_t i = begin; i < end; ++i)
      ++counts[pair_key(full_trace[i])];

    std::vector<WeightedEdge> edges;
    edges.reserve(counts.size());
    counts.for_each([&](std::uint64_t key, std::uint64_t cnt) {
      const std::uint64_t d = inst.dist(pair_lo(key), pair_hi(key));
      if (d <= 1) return;
      std::uint64_t weight = cnt * (d - 1);
      // Hysteresis: edges kept from the previous window save 2α of
      // switching (no removal + no later re-add), modeled as a bonus.
      if (previous.contains(key)) weight += bonus;
      edges.push_back({key, weight});
    });

    std::vector<std::uint64_t> plan =
        greedy_b_matching(inst.num_racks(), cap, edges);
    if (options.local_search) {
      plan = local_search_b_matching(inst.num_racks(), cap, edges,
                                     std::move(plan));
    }
    previous.clear();
    for (std::uint64_t k : plan) previous.insert(k);
    plans_.push_back(std::move(plan));
  }
  if (!plans_.empty()) apply_plan(0);
  next_plan_ = 1;
}

void OfflineDynamic::apply_plan(std::size_t w) {
  RDCN_ASSERT(w < plans_.size());
  FlatSet target(plans_[w].size());
  for (std::uint64_t k : plans_[w]) target.insert(k);

  // Remove edges not in the target, then add the missing ones (this order
  // keeps degrees feasible throughout).
  for (std::uint64_t k : matching_view().edge_keys()) {
    if (!target.contains(k)) remove_matching_edge_key(k);
  }
  for (std::uint64_t k : plans_[w]) {
    if (!matching_view().has_key(k))
      add_matching_edge(pair_lo(k), pair_hi(k));
  }
}

void OfflineDynamic::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const BMatching& m = matching_view();
  std::size_t i = 0;
  while (i < batch.size()) {
    // Requests left in the current epoch: plans switch after the request
    // that completes a window, so a run never crosses a plan application
    // and the matching is constant over it.
    const std::size_t run = std::min<std::size_t>(
        batch.size() - i, window_ - static_cast<std::size_t>(served_ % window_));
    for (std::size_t j = i; j < i + run; ++j) {
      const Request& r = batch[j];
      RDCN_DCHECK(r.u != r.v);
      const bool matched = m.has(r.u, r.v);
      acc.routing_cost += matched ? 1 : dist(r.u, r.v);
      ++acc.requests;
      acc.direct_serves += matched ? 1 : 0;
    }
    i += run;
    served_ += run;
    if (served_ % window_ == 0 && next_plan_ < plans_.size()) {
      apply_plan(next_plan_);
      ++next_plan_;
    }
  }
  commit_routing(acc);
}

}  // namespace rdcn::core
