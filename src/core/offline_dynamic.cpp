#include "core/offline_dynamic.hpp"

#include <algorithm>
#include <span>

#include "common/param_map.hpp"

namespace rdcn::core {

std::vector<std::uint64_t> greedy_b_matching(std::size_t num_racks,
                                             std::size_t degree_cap,
                                             std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.weight != b.weight ? a.weight > b.weight
                                          : a.key < b.key;
            });
  std::vector<std::size_t> degree(num_racks, 0);
  std::vector<std::uint64_t> matching;
  for (const WeightedEdge& e : edges) {
    if (e.weight == 0) break;  // nothing to gain from zero-weight edges
    std::size_t& lo = degree[pair_lo(e.key)];
    std::size_t& hi = degree[pair_hi(e.key)];
    if (lo < degree_cap && hi < degree_cap) {
      ++lo;
      ++hi;
      matching.push_back(e.key);
    }
  }
  return matching;
}

OfflineDynamic::OfflineDynamic(const Instance& inst,
                               const trace::Trace& full_trace,
                               const OfflineDynamicOptions& options)
    : OnlineBMatcher(inst), window_(options.window) {
  if (window_ == 0)
    throw SpecError(
        "algorithm 'offline_dynamic': parameter 'window' must be >= 1, got 0");
  RDCN_ASSERT_MSG(full_trace.num_racks() <= inst.num_racks(),
                  "trace universe exceeds instance");
  const std::size_t cap = inst.offline_degree();
  const std::size_t num_windows =
      full_trace.empty() ? 0 : (full_trace.size() + window_ - 1) / window_;
  plans_.reserve(num_windows);

  const std::uint64_t bonus = static_cast<std::uint64_t>(
      options.retention_bonus * static_cast<double>(inst.alpha));

  // Window demand, one counter per unordered pair at its triangular slot.
  // pairs[0, num_pairs) lists the window's pairs in first-touch order (the
  // greedy matching sorts the edges itself), and their counters are zeroed
  // as the edges are listed: O(W + pairs) per window.  `pairs` holds the
  // most pairs a window can touch, so counting never reallocates.
  // `previous` marks the slots of the previous window's plan.
  std::vector<std::uint64_t> counts(pair_slots(full_trace.num_racks()));
  std::vector<std::uint64_t> pairs(std::min(window_, counts.size()));
  std::vector<bool> previous(counts.size());
  for (std::size_t w = 0; w < num_windows; ++w) {
    const std::size_t begin = w * window_;
    const std::size_t end = std::min(full_trace.size(), begin + window_);
    std::size_t num_pairs = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t key = pair_key(full_trace[i]);
      if (counts[pair_slot(key)]++ == 0) pairs[num_pairs++] = key;
    }
    std::vector<WeightedEdge> edges;
    edges.reserve(num_pairs);
    for (const std::uint64_t key : std::span(pairs.data(), num_pairs)) {
      std::uint64_t& count = counts[pair_slot(key)];
      const std::uint64_t d = inst.dist(pair_lo(key), pair_hi(key));
      if (d > 1) {
        std::uint64_t weight = count * (d - 1);
        // Hysteresis: edges kept from the previous window save 2α of
        // switching (no removal + no later re-add), modeled as a bonus.
        if (previous[pair_slot(key)]) weight += bonus;
        edges.push_back({key, weight});
      }
      count = 0;
    }

    std::vector<std::uint64_t> plan =
        greedy_b_matching(inst.num_racks(), cap, std::move(edges));
    std::sort(plan.begin(), plan.end());
    if (!plans_.empty())
      for (std::uint64_t k : plans_.back()) previous[pair_slot(k)] = false;
    for (std::uint64_t k : plan) previous[pair_slot(k)] = true;
    plans_.push_back(std::move(plan));
  }
  // A plan's degrees are bounded by offline_degree(), so the online
  // matching (cap b) accepts every plan as long as a <= b.
  if (!plans_.empty()) apply_plan(0);
}

void OfflineDynamic::apply_plan(std::size_t w) {
  RDCN_ASSERT(w < plans_.size());
  const std::vector<std::uint64_t>& target = plans_[w];
  // Remove edges not in the target, then add the missing ones (this order
  // keeps degrees feasible throughout).
  for (std::uint64_t k : matching_view().edge_keys()) {
    if (!std::binary_search(target.begin(), target.end(), k))
      remove_matching_edge_key(k);
  }
  for (std::uint64_t k : target) {
    if (!matching_view().has_key(k))
      add_matching_edge(pair_lo(k), pair_hi(k));
  }
}

void OfflineDynamic::serve_batch(std::span<const Request> batch) {
  serve_in_epochs(batch, window_, [this] {
    if (next_plan_ < plans_.size()) apply_plan(next_plan_++);
  });
}

}  // namespace rdcn::core
