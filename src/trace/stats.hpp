// rdcn: trace structure analytics.
//
// The paper's workload discussion (§3.1, following Avin et al.
// SIGMETRICS'20 "On the complexity of traffic traces and implications")
// characterizes traces along two axes: *spatial* structure (how skewed the
// pair distribution is) and *temporal* structure (how bursty/repetitive the
// sequence is).  These metrics let tests assert that the synthetic
// Facebook-like traces are skewed AND bursty while the Microsoft-like trace
// is skewed but NOT bursty — the property driving Fig 4c's SO-BMA result.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/trace.hpp"

namespace rdcn::trace {

struct TraceStats {
  std::size_t num_requests = 0;
  std::size_t num_racks = 0;
  std::size_t distinct_pairs = 0;

  /// Shannon entropy of the empirical pair distribution, normalized by
  /// log2(#distinct pairs): 1.0 = uniform over observed pairs, 0 = single
  /// pair.  Lower = more spatial structure (skew).
  double normalized_pair_entropy = 0.0;

  /// Fraction of traffic carried by the top 1% / 10% of pairs.
  double top1pct_share = 0.0;
  double top10pct_share = 0.0;

  /// P(request i+1 has the same pair as request i): direct burstiness.
  double repeat_probability = 0.0;

  /// P(the pair of request i appeared within the previous `window`
  /// requests), window = 64: working-set temporal locality.
  double locality_window64 = 0.0;

  /// Gini coefficient of the pair-frequency distribution (0 = uniform,
  /// -> 1 = maximally concentrated): the spatial-skew scalar.
  double gini = 0.0;
};

TraceStats compute_stats(const Trace& trace);

/// Per-pair (key, request count) over the trace, by count descending and
/// tied counts by ascending key, so the order depends on the trace alone.
std::vector<std::pair<std::uint64_t, std::uint64_t>> pair_counts_sorted(
    const Trace& trace);

}  // namespace rdcn::trace
