// rdcn: the online b-matching algorithm interface.
//
// Each matcher has one serve path, serve_batch(), which implements the
// cost model of §1.1 exactly for every request of the span, in order:
//   1. the request is routed with the *current* matching — cost 1 if
//      {s,t} ∈ M, else ℓ_{s,t} on the fixed network;
//   2. the algorithm may then reconfigure; every edge added to or removed
//      from M costs α (accounted automatically by the protected mutators,
//      so no subclass can cheat the ledger).
// A matcher starts from its constructor's state; a new run builds a new
// matcher.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "core/b_matching.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class OnlineBMatcher {
 public:
  explicit OnlineBMatcher(const Instance& instance)
      : instance_(instance),
        matching_(instance.num_racks(), instance.b) {}

  virtual ~OnlineBMatcher() = default;

  OnlineBMatcher(const OnlineBMatcher&) = delete;
  OnlineBMatcher& operator=(const OnlineBMatcher&) = delete;

  /// Serves a contiguous chunk of requests, each routed with the *current*
  /// matching before the algorithm reconfigures.  How the span is split
  /// never changes the ledger: serving it in one call or request by
  /// request leaves bit-identical costs.  One virtual dispatch per chunk
  /// lets each matcher run a devirtualized inner loop.
  virtual void serve_batch(std::span<const Request> batch) = 0;

  /// Serves one request: a one-request batch.
  void serve(const Request& r) { serve_batch({&r, 1}); }

  const BMatching& matching() const noexcept { return matching_; }
  const CostStats& costs() const noexcept { return costs_; }
  const Instance& instance() const noexcept { return instance_; }

  virtual std::string name() const = 0;

 protected:
  /// Chunk-local routing ledger for serve_batch: the per-request routing
  /// fields accumulate in registers and are committed once per chunk.
  /// Integer sums are associative, so a commit at the chunk boundary
  /// leaves CostStats bit-identical to per-request accounting
  /// (reconfiguration costs still book immediately via the mutators).
  struct RoutingDelta {
    std::uint64_t routing_cost = 0;
    std::uint64_t requests = 0;
    std::uint64_t direct_serves = 0;
  };
  void commit_routing(const RoutingDelta& d) noexcept {
    costs_.routing_cost += d.routing_cost;
    costs_.requests += d.requests;
    costs_.direct_serves += d.direct_serves;
  }

  /// Reconfiguration mutators — each call books α into the ledger.
  void add_matching_edge(Rack u, Rack v) {
    matching_.add(u, v);
    costs_.reconfig_cost += instance_.alpha;
    costs_.edge_adds += 1;
  }
  void remove_matching_edge(Rack u, Rack v) {
    matching_.remove(u, v);
    costs_.reconfig_cost += instance_.alpha;
    costs_.edge_removals += 1;
  }
  void remove_matching_edge_key(std::uint64_t key) {
    remove_matching_edge(pair_lo(key), pair_hi(key));
  }

  /// Pre-scheduled reconfiguration: mutates the matching WITHOUT charging
  /// α.  Strictly for demand-OBLIVIOUS architectures (rotor switches)
  /// whose reconfigurations are part of the fixed hardware duty cycle and
  /// happen regardless of traffic; demand-aware algorithms must use the
  /// charging mutators above.  Ops are still counted (prescheduled_ops).
  void add_matching_edge_prescheduled(Rack u, Rack v) {
    matching_.add(u, v);
    costs_.prescheduled_ops += 1;
  }
  void remove_matching_edge_prescheduled(std::uint64_t key) {
    matching_.remove(pair_lo(key), pair_hi(key));
    costs_.prescheduled_ops += 1;
  }

  std::uint16_t dist(Rack u, Rack v) const noexcept {
    return instance_.dist(u, v);
  }
  std::uint64_t alpha() const noexcept { return instance_.alpha; }
  std::size_t b() const noexcept { return instance_.b; }
  const BMatching& matching_view() const noexcept { return matching_; }

 private:
  Instance instance_;
  BMatching matching_;
  CostStats costs_;
};

}  // namespace rdcn::core
