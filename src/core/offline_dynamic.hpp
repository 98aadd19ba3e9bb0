// rdcn: the offline comparators — SO-BMA and its epoch-based dynamic
// generalization.
//
// Partition the trace into windows of W requests, compute a heavy
// b-matching of each window's demand graph with edge weight
//     w(e) = count(e) · (ℓe − 1)
// (the routing cost saved by keeping e matched for the window), and
// switch matchings at window boundaries, paying α per changed edge.
//
// Each window's matching is greedy: scan the edges by descending weight
// and take one when both endpoints have spare degree, a 1/2-approximation
// of the maximum-weight b-matching (greedy_b_matching_test's
// GreedyApproximation pins it against an exact solver).  No single-swap
// local search follows, because none can improve a greedy result: greedy
// skips an edge only when an endpoint is full, and every matched edge
// there was taken earlier, so it weighs at least as much
// (GreedyBMatching.NoSingleSwapImproves).  Exact b-matching is polynomial
// (Anstee '87) but heavyweight.
//
// One window (W ≥ trace length) is SO-BMA, the static offline comparator
// of §3 ("Maximum Weight Matching algorithm"): it installs one matching
// for the whole trace (α per edge) and never reconfigures.  On traces
// without temporal structure (the Microsoft workload) this is
// near-optimal and clearly beats any online algorithm (Fig 4c); on bursty
// traces the online algorithms close the gap (Figs 2c, 3c).  The
// registry's "so_bma" entry builds exactly that window.
//
// Smaller W is the dynamic-offline family studied by Hanauer et al.
// (INFOCOM'23) for reconfigurable datacenters.  A hysteresis bonus keeps
// an edge from the previous window when its new demand is close (avoids
// α-thrash on borderline edges).  Sweeping W (the offline-window lines
// of bench/paper_experiments.txt) exposes the adaptivity/reconfiguration
// trade-off: small W adapts fast but pays heavy switching costs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/online_matcher.hpp"
#include "trace/trace.hpp"

namespace rdcn::core {

struct OfflineDynamicOptions {
  std::size_t window = 10000;   ///< requests per epoch
  /// Weight bonus (as a fraction of α) granted to edges already matched in
  /// the previous window — hysteresis against switching thrash.
  double retention_bonus = 1.0;
};

/// A demand-graph edge: canonical pair id and the routing cost it saves.
struct WeightedEdge {
  std::uint64_t key;
  std::uint64_t weight;
};

/// Greedy maximum-weight b-matching: edges by descending weight (ties by
/// key, so the result is deterministic), each taken when both endpoints
/// have degree below `degree_cap`; zero-weight edges are never taken.
/// Returns the matched keys in the order they were taken.
std::vector<std::uint64_t> greedy_b_matching(std::size_t num_racks,
                                             std::size_t degree_cap,
                                             std::vector<WeightedEdge> edges);

class OfflineDynamic final : public OnlineBMatcher {
 public:
  /// Offline: consumes the full trace up front and precomputes the
  /// per-window matchings (degree cap = instance.offline_degree(), so the
  /// (b,a) generalization is exercised by setting instance.a < b).
  OfflineDynamic(const Instance& instance, const trace::Trace& full_trace,
                 const OfflineDynamicOptions& options = {});

  std::string name() const override { return "offline_dynamic"; }

  /// Windows are serve_in_epochs' epochs: the next plan is applied after
  /// the request that completes a window.
  void serve_batch(std::span<const Request> batch) override;

  std::size_t num_windows() const noexcept { return plans_.size(); }

 private:
  /// Applies plan `w` (diff against the current matching).
  void apply_plan(std::size_t w);

  /// Matching per window, sorted by key.
  std::vector<std::vector<std::uint64_t>> plans_;
  std::size_t window_;
  std::size_t next_plan_ = 1;  ///< the constructor applies plan 0
};

}  // namespace rdcn::core
