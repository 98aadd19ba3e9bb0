// rdcn: the oblivious baseline — no reconfigurable links at all; every
// request rides the fixed network (the paper's violet reference line in
// Figs 1a–4a).
#pragma once

#include "core/online_matcher.hpp"

namespace rdcn::core {

class Oblivious final : public OnlineBMatcher {
 public:
  explicit Oblivious(const Instance& instance) : OnlineBMatcher(instance) {}

  std::string name() const override { return "oblivious"; }

  /// Devirtualized chunk loop: the matching is permanently empty (nothing
  /// ever calls the mutators), so a batch is a straight sum of distances
  /// with no membership probe.
  void serve_batch(std::span<const Request> batch) override;
};

}  // namespace rdcn::core
