// rdcn: SO-BMA — the static offline comparator of §3 ("Maximum Weight
// Matching algorithm").
//
// Sees the entire trace up front, aggregates per-pair demand, computes a
// maximum-weight b-matching of the demand graph with edge weight
//     w(e) = count(e) · (ℓe − 1)
// (the total routing cost saved by keeping e matched for the whole run),
// installs it once (α per edge), and never reconfigures.
//
// On traces without temporal structure (the Microsoft workload) this is
// near-optimal and clearly beats any online algorithm (Fig 4c); on bursty
// traces the online algorithms close the gap (Figs 2c, 3c).
#pragma once

#include "core/online_matcher.hpp"
#include "trace/trace.hpp"

namespace rdcn::core {

struct SoBmaOptions {
  bool local_search = true;  ///< refine greedy with swap local search
  int local_search_passes = 8;
};

class SoBma final : public OnlineBMatcher {
 public:
  /// `full_trace` is the complete future (this comparator is offline by
  /// definition).  The degree cap used is instance.offline_degree(), so the
  /// (b,a) generalization is exercised by setting instance.a < b.
  SoBma(const Instance& instance, const trace::Trace& full_trace,
        const SoBmaOptions& options = {});

  std::string name() const override { return "so_bma"; }

  /// Devirtualized chunk loop: the matching never changes after the
  /// constructor installs it, so a batch is a pure membership +
  /// distance-gather pass with routing committed once per chunk.
  /// Membership resolves against a dense bitset frozen at install time —
  /// one load+test per request instead of an adjacency scan or hash probe,
  /// with identical verdicts by construction.
  void serve_batch(std::span<const Request> batch) override;

 private:
  /// Dense pair-membership bitset (row-major u·n+v, both orientations set),
  /// built by the constructor: valid for the whole run because nothing
  /// mutates the matching afterwards.  Left empty for huge universes
  /// (> 8 MiB of bits), where serve_batch falls back to BMatching::has.
  std::vector<std::uint64_t> matched_bits_;
};

}  // namespace rdcn::core
