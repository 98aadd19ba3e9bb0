// rdcn: greedy online baseline — matches a requested pair immediately
// whenever both endpoints have spare degree, and never evicts.
//
// Not competitive (an adversary fills the matching with junk once and
// starves it forever), but a useful ablation point: it separates "how much
// of the win is just having *some* shortcuts" from the eviction policy
// contributions of BMA/R-BMA.
#pragma once

#include "core/online_matcher.hpp"

namespace rdcn::core {

class GreedyOnline final : public OnlineBMatcher {
 public:
  explicit GreedyOnline(const Instance& instance)
      : OnlineBMatcher(instance) {}

  std::string name() const override { return "greedy_online"; }

  /// Devirtualized chunk loop: membership, routing accumulation, and the
  /// spare-degree install test in one pass, one distance load per request.
  void serve_batch(std::span<const Request> batch) override;
};

}  // namespace rdcn::core
