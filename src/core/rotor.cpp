#include "core/rotor.hpp"

#include <algorithm>

#include "common/flat_hash.hpp"
#include "common/param_map.hpp"

namespace rdcn::core {

Rotor::Rotor(const Instance& inst, const RotorOptions& options)
    : OnlineBMatcher(inst), options_(options) {
  if (options_.slot_length == 0)
    throw SpecError("algorithm 'rotor': parameter 'slot' must be >= 1, got 0");
  build_schedule();
  install_slot(0);
}

void Rotor::build_schedule() {
  // Circle method round-robin tournament over the racks.  For odd n a
  // dummy participant creates a bye; pairs with the dummy are skipped
  // (those racks idle for the round).
  const std::size_t n = instance().num_racks();
  const std::size_t m = n % 2 == 0 ? n : n + 1;  // with dummy if odd
  const std::size_t rounds = m - 1;
  const std::size_t dummy = m - 1;

  schedule_.clear();
  schedule_.reserve(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::uint64_t> matching;
    matching.reserve(m / 2);
    // Participant m-1 is fixed; the others rotate.
    auto participant = [&](std::size_t position) -> std::size_t {
      return position == m - 1 ? m - 1 : (round + position) % (m - 1);
    };
    for (std::size_t i = 0; i < m / 2; ++i) {
      const std::size_t a = participant(i);
      const std::size_t b = participant(m - 1 - i);
      if (n % 2 == 1 && (a == dummy || b == dummy)) continue;  // bye
      if (a >= n || b >= n) continue;
      matching.push_back(pair_key(static_cast<Rack>(a),
                                  static_cast<Rack>(b)));
    }
    schedule_.push_back(std::move(matching));
  }
}

void Rotor::install_slot(std::size_t slot) {
  const std::size_t L = schedule_.size();
  const std::size_t switches = std::min(instance().b, L);
  const std::size_t stride =
      options_.staggered ? std::max<std::size_t>(1, L / switches) : 1;

  // Union of the b staggered schedule positions, deduplicated.
  FlatSet target;
  for (std::size_t r = 0; r < switches; ++r) {
    for (std::uint64_t key : schedule_[(slot + r * stride) % L])
      target.insert(key);
  }
  // Diff against the current matching (uncharged: rotor duty cycle).
  for (std::uint64_t key : matching_view().edge_keys()) {
    if (!target.contains(key)) remove_matching_edge_prescheduled(key);
  }
  target.for_each([&](std::uint64_t key) {
    if (!matching_view().has_key(key))
      add_matching_edge_prescheduled(pair_lo(key), pair_hi(key));
  });
}

void Rotor::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const BMatching& m = matching_view();
  std::size_t i = 0;
  while (i < batch.size()) {
    // Requests left in the current rotor slot: the matching is constant
    // over this run, so the slot counter moves once per run instead of
    // once per request.  The switches advance after the request that
    // fills the slot, so a run never crosses an install.
    const std::size_t run = std::min(batch.size() - i,
                                     options_.slot_length - served_in_slot_);
    for (std::size_t j = i; j < i + run; ++j) {
      const Request& r = batch[j];
      RDCN_DCHECK(r.u != r.v);
      const bool matched = m.has(r.u, r.v);
      acc.routing_cost += matched ? 1 : dist(r.u, r.v);
      ++acc.requests;
      acc.direct_serves += matched ? 1 : 0;
    }
    i += run;
    served_in_slot_ += run;
    if (served_in_slot_ >= options_.slot_length) {
      served_in_slot_ = 0;
      current_slot_ = (current_slot_ + 1) % schedule_.size();
      install_slot(current_slot_);
    }
  }
  commit_routing(acc);
}

}  // namespace rdcn::core
