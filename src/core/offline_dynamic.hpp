// rdcn: epoch-based dynamic offline comparator.
//
// Between the two offline extremes — SO-BMA (one static matching for the
// whole trace) and the exact dynamic OPT (intractable beyond toy sizes) —
// sits the dynamic-offline family studied by Hanauer et al. (INFOCOM'23)
// for reconfigurable datacenters: partition the trace into windows of W
// requests, compute a heavy b-matching of each window's demand, and switch
// matchings at window boundaries, paying α per changed edge.
//
// A hysteresis bonus keeps an edge from the previous window when its new
// demand is close (avoids α-thrash on borderline edges).  Sweeping W in
// bench/ablation_offline_window.cpp exposes the adaptivity/reconfiguration
// trade-off: W → trace length recovers SO-BMA; small W adapts fast but
// pays heavy switching costs.
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
  bool local_search = true;
};

class OfflineDynamic final : public OnlineBMatcher {
 public:
  /// Offline: consumes the full trace up front and precomputes the
  /// per-window matchings (degree cap = instance.offline_degree()).
  OfflineDynamic(const Instance& instance, const trace::Trace& full_trace,
                 const OfflineDynamicOptions& options = {});

  std::string name() const override { return "offline_dynamic"; }

  /// Devirtualized chunk loop: processes the batch in window-sized runs —
  /// the matching only changes at epoch boundaries, so the inner loop is
  /// pure membership + routing accumulation with no per-request epoch
  /// arithmetic.  The ledger does not depend on how the trace is split
  /// into batches (pinned by the batch differential suite).
  void serve_batch(std::span<const Request> batch) override;

  std::size_t num_windows() const noexcept { return plans_.size(); }

 private:
  /// Applies plan `w` (diff against the current matching).
  void apply_plan(std::size_t w);

  std::vector<std::vector<std::uint64_t>> plans_;  ///< matching per window
  std::size_t window_;
  std::uint64_t served_ = 0;
  std::size_t next_plan_ = 0;
};

}  // namespace rdcn::core
