// rdcn: BMA — the deterministic online b-matching baseline
// (Bienkowski, Fuchssteiner, Marcinkowski, Schmid; PERFORMANCE 2020),
// the state of the art the paper benchmarks R-BMA against.
//
// Counter-based scheme (Θ(b)-competitive, asymptotically optimal among
// deterministic algorithms):
//
//   * every non-matched pair e accumulates ℓe per request into a counter
//     c[e] — the routing cost paid on the fixed network since e last
//     left/missed the matching;
//   * when c[e] reaches the reconfiguration cost α, the edge has "paid its
//     dues" and is admitted to M (c[e] returns to zero);
//   * if admission pushes an endpoint over degree b, the incident matching
//     edge with the lowest usage counter (direct serves since admission,
//     ties broken by age) is evicted, and its counter restarts from zero.
//
// Per-request cost profile: following the paper's reference implementation,
// every request re-scans the ≤ b incident matching edges of both endpoints
// for their eviction candidates.  This Θ(b) request-path scan — which the
// randomized algorithm does not need — is the mechanistic source of BMA's
// runtime growth with b seen in the paper's Figs 1b–4b.
//
// Where each fact lives:
//   * a matched edge's key and its rank, the packed (usage, admission
//     tick): the rack rows of its two endpoints (core/rack_rows.hpp: one
//     ranked row per rack, common/ranked_row.hpp, the structure the LRU,
//     FIFO, LFU and ARC paging engines evict from too), so the scan of a
//     row is one SIMD pass that finds the request's key and the least rank
//     together, with no hash probe.  The rows equal the matching
//     adjacency, and a direct serve bumps the usage in both rows;
//   * an unmatched pair's charge: `charges_`, one u64 per unordered pair
//     at its triangular slot (trace::pair_slot).  Admission resets the
//     charge to zero, so an evicted pair starts again from zero.
// Admission ticks are unique, so the scan's victim is unique and neither
// row order nor SIMD lane order can affect the ledger.
#pragma once

#include <vector>

#include "core/online_matcher.hpp"
#include "core/rack_rows.hpp"

namespace rdcn::core {

class Bma final : public OnlineBMatcher {
 public:
  explicit Bma(const Instance& instance)
      : OnlineBMatcher(instance),
        charges_(pair_slots(instance.num_racks())),
        rows_(instance.num_racks()) {}

  std::string name() const override { return "bma"; }

  /// Devirtualized chunk loop.  It *fuses* the matched-membership check
  /// into the two eviction-candidate scans: the rack rows mirror the
  /// matching adjacency exactly, so the request's pair is matched iff one
  /// of the scans found its key, and no separate membership probe is paid.
  void serve_batch(std::span<const Request> batch) override;

  /// Test hook: accumulated charge toward admission for pair key.
  std::uint64_t charge(std::uint64_t key) const {
    return charges_[pair_slot(key)];
  }

  /// Audit of the rack rows: each rack's row holds exactly its matching
  /// neighbours' edges, and both endpoints of an edge carry the same rank
  /// (usage and admission tick).
  bool check_rows() const;

 private:
  /// Non-matched tail of the request path: accumulates `d` into the
  /// pair's charge and admits the pair once it has paid α, evicting the
  /// scans' victim at each full endpoint.  `d` must equal dist(r.u, r.v).
  void charge_and_maybe_admit(const Request& r, std::uint64_t key,
                              std::uint64_t d, std::uint64_t victim_u,
                              std::uint64_t victim_v);

  /// Removes the matched edge `victim` from the matching and both its rows.
  void evict(std::uint64_t victim);

  std::vector<std::uint64_t> charges_;  ///< indexed by pair_slot(key)
  RackRows rows_;                   ///< incident matching edges per rack
  std::uint64_t clock_ = 0;
};

}  // namespace rdcn::core
