#include "core/rotor.hpp"

#include <algorithm>

#include "common/param_map.hpp"

namespace rdcn::core {

Rotor::Rotor(const Instance& inst, const RotorOptions& options)
    : OnlineBMatcher(inst), options_(options) {
  if (options_.slot_length == 0)
    throw SpecError("algorithm 'rotor': parameter 'slot' must be >= 1, got 0");
  build_schedule();
  const std::size_t L = schedule_.size();
  switches_ = std::min(instance().b, L);
  stride_ = options_.staggered ? std::max<std::size_t>(1, L / switches_) : 1;
  for (std::size_t round = 0; round < L; ++round)
    if (plays(round, 0))
      for (std::uint64_t key : schedule_[round])
        add_matching_edge_prescheduled(pair_lo(key), pair_hi(key));
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

bool Rotor::plays(std::size_t round, std::size_t slot) const noexcept {
  const std::size_t offset =
      (round + schedule_.size() - slot) % schedule_.size();
  return offset % stride_ == 0 && offset / stride_ < switches_;
}

void Rotor::advance_slot() {
  // Each pair plays in exactly one round, so the matching is the disjoint
  // union of the slot's rounds: a slot change removes the rounds that
  // leave and adds the rounds that enter (uncharged: rotor duty cycle),
  // removals first so degrees stay within b.
  const std::size_t next = (current_slot_ + 1) % schedule_.size();
  for (std::size_t round = 0; round < schedule_.size(); ++round)
    if (plays(round, current_slot_) && !plays(round, next))
      for (std::uint64_t key : schedule_[round])
        remove_matching_edge_prescheduled(key);
  for (std::size_t round = 0; round < schedule_.size(); ++round)
    if (!plays(round, current_slot_) && plays(round, next))
      for (std::uint64_t key : schedule_[round])
        add_matching_edge_prescheduled(pair_lo(key), pair_hi(key));
  current_slot_ = next;
}

void Rotor::serve_batch(std::span<const Request> batch) {
  serve_in_epochs(batch, options_.slot_length, [this] { advance_slot(); });
}

}  // namespace rdcn::core
