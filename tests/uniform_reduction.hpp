// rdcn: Theorem 1 as a reusable combinator.
//
// The paper reduces the general (b,a)-matching problem (arbitrary α,
// arbitrary path lengths ℓe) to the *uniform* case (α = 1, ℓe = 1):
// forward only every ⌈α/ℓe⌉-th request per pair to a uniform-case
// algorithm and mirror its matching decisions, losing a factor 4γ,
// γ = 1 + ℓmax/α.
//
// UniformReduction implements exactly that transformation for ANY inner
// OnlineBMatcher: it owns a uniform instance (complete graph at distance 1,
// α = 1) over the same racks, streams the special requests into the inner
// algorithm, and keeps its own matching identical to the inner one (each
// mirrored add/remove booked at the real α).
//
// R-BMA (core/r_bma.hpp) is the fused version of
// UniformReduction(uniform R-BMA); tests/uniform_reduction_test.cpp checks
// they are behaviourally identical and that the Theorem 1 cost inequality
//     Alg(I) ≤ 2γα·Alg1(I1) + |V²|γα
// holds on every run.
#pragma once

#include <functional>
#include <memory>

#include "common/flat_hash.hpp"
#include "core/online_matcher.hpp"
#include "net/distance_matrix.hpp"

namespace rdcn::core {

class UniformReduction final : public OnlineBMatcher {
 public:
  /// `make_inner` builds the uniform-case algorithm from the uniform
  /// instance (same racks and b, α = 1, all distances 1).
  using InnerFactory =
      std::function<std::unique_ptr<OnlineBMatcher>(const Instance&)>;

  UniformReduction(const Instance& instance, InnerFactory make_inner)
      : OnlineBMatcher(instance),
        uniform_distances_(
            net::DistanceMatrix::uniform(instance.num_racks(), 1)) {
    uniform_instance_.distances = &uniform_distances_;
    uniform_instance_.b = instance.b;
    uniform_instance_.a = instance.a;
    uniform_instance_.alpha = 1;
    inner_ = make_inner(uniform_instance_);
    RDCN_ASSERT_MSG(inner_ != nullptr, "inner factory returned null");
  }

  std::string name() const override {
    return "uniform_reduction[" + inner_->name() + "]";
  }

  void serve_batch(std::span<const Request> batch) override {
    RoutingDelta acc;
    for (const Request& r : batch) {
      RDCN_DCHECK(r.u != r.v);
      // Route with the current matching before any reconfiguration.
      const bool matched = matching_view().has(r.u, r.v);
      const std::uint64_t d = dist(r.u, r.v);
      acc.routing_cost += matched ? 1 : d;
      ++acc.requests;
      acc.direct_serves += matched ? 1 : 0;

      const std::uint64_t ke = (alpha() + d - 1) / d;
      std::uint32_t& counter = counters_[pair_key(r)];
      if (++counter < ke) continue;
      counter = 0;
      ++specials_;
      inner_->serve(r);
      mirror_inner_matching();
    }
    commit_routing(acc);
  }

  /// The inner algorithm's ledger IS Alg1(I1) of the Theorem 1 proof.
  const OnlineBMatcher& inner() const noexcept { return *inner_; }
  std::uint64_t special_requests() const noexcept { return specials_; }

 private:
  /// Re-synchronizes our matching with the inner one.  The inner algorithm
  /// only changes edges while serving, so the symmetric difference is
  /// small; we diff the full edge sets for generality (inner algorithms
  /// may restructure arbitrarily under Theorem 2's contract).
  void mirror_inner_matching() {
    const BMatching& target = inner_->matching();
    // Remove first so degree caps hold throughout.
    for (std::uint64_t k : matching_view().edge_keys()) {
      if (!target.has_key(k)) remove_matching_edge_key(k);
    }
    for (std::uint64_t k : target.edge_keys()) {
      if (!matching_view().has_key(k))
        add_matching_edge(pair_lo(k), pair_hi(k));
    }
  }

  net::DistanceMatrix uniform_distances_;
  Instance uniform_instance_;
  std::unique_ptr<OnlineBMatcher> inner_;
  FlatMap<std::uint32_t> counters_;
  std::uint64_t specials_ = 0;
};

}  // namespace rdcn::core
