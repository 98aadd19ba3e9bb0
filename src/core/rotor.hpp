// rdcn: RotorNet-style demand-OBLIVIOUS reconfigurable baseline.
//
// The paper's introduction contrasts demand-aware designs (ProjecToR,
// this paper) with demand-oblivious rotor architectures (RotorNet [56],
// Sirius [8]): rotor switches cycle through a fixed round-robin schedule
// of matchings, independent of traffic.  Each of the b rotor switches
// provides one perfect matching at a time; the schedule covers all n-1
// perfect matchings of K_n (circle method), so every rack pair is directly
// connected a 1/(n-1) fraction of the time per switch.
//
// Cost model: a request costs 1 if its pair is in ANY currently active
// rotor matching, else ℓe.  Rotor reconfigurations are pre-scheduled and
// amortized into the hardware duty cycle (RotorNet's core argument), so —
// unlike demand-aware reconfigurations — they are not charged α.  This
// baseline quantifies how much of the win comes from *having* dynamic
// links versus *pointing them at the demand*.
#pragma once

#include <vector>

#include "core/online_matcher.hpp"

namespace rdcn::core {

struct RotorOptions {
  /// Requests served per rotor slot before every switch advances.
  std::size_t slot_length = 100;
  /// Stagger switch r by r * (n-1)/b schedule positions so the b active
  /// matchings are spread over the schedule (RotorNet's phase offset).
  bool staggered = true;
};

class Rotor final : public OnlineBMatcher {
 public:
  Rotor(const Instance& instance, const RotorOptions& options = {});

  std::string name() const override { return "rotor"; }

  /// Rotor slots are serve_in_epochs' epochs: every switch advances after
  /// the request that fills a slot.
  void serve_batch(std::span<const Request> batch) override;

  /// Number of distinct matchings in the schedule (n-1 for even n).
  std::size_t schedule_length() const noexcept { return schedule_.size(); }

 private:
  void build_schedule();
  /// True iff slot `slot` has a switch on schedule round `round`: switch
  /// r plays round slot + r·stride (mod the schedule length).
  bool plays(std::size_t round, std::size_t slot) const noexcept;
  void advance_slot();

  RotorOptions options_;
  /// schedule_[s] = perfect matching s as canonical pair keys.
  std::vector<std::vector<std::uint64_t>> schedule_;
  std::size_t switches_ = 0;  ///< min(b, schedule length)
  std::size_t stride_ = 1;    ///< schedule positions between switches
  std::size_t current_slot_ = 0;
};

}  // namespace rdcn::core
