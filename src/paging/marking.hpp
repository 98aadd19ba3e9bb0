// rdcn: randomized marking algorithm (Fiat, Karp, Luby, McGeoch, Sleator,
// Young '91), the paging engine behind R-BMA's O(log b) guarantee.
//
// Phase structure: every cached key is marked or unmarked.  A request marks
// its key.  On a fault with a full cache, a uniformly random *unmarked* key
// is evicted; if everything is marked, a new phase begins (all marks are
// cleared first).  Against an offline optimum with cache a <= b the expected
// fault count is within factor 2·ln(b/(b-a+1)) + O(1) (Young '91), and
// within 2·H_b for a = b.
#pragma once

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Marking final : public PagingAlgorithm {
 public:
  Marking(std::size_t capacity, Xoshiro256 rng)
      : PagingAlgorithm(capacity), rng_(rng) {
    unmarked_.reserve(capacity);
  }

  std::string name() const override { return "marking"; }

  /// Number of completed phases (diagnostics; the competitive analysis
  /// charges OPT per phase).
  std::uint64_t phases() const noexcept { return phases_; }

  bool is_marked(Key key) const noexcept {
    return contains(key) && find_unmarked(key) == simd::kNpos;
  }

 protected:
  void on_hit(Key key) override { mark(key); }

  void on_fault(Key /*key*/, std::vector<Key>& evicted) override {
    if (cache_full()) {
      if (unmarked_.empty()) {
        // New phase: clear all marks.  All currently cached keys become
        // eviction candidates again.
        ++phases_;
        unmarked_ = cached_keys();
      }
      // Evict a uniformly random unmarked key.
      const std::size_t i = rng_.next_below(unmarked_.size());
      const Key victim = unmarked_[i];
      remove_unmarked_at(i);
      evict_from_cache(victim, evicted);
    }
    // The incoming key enters marked (it is being requested right now), so
    // it is *not* added to unmarked_.
  }

 private:
  std::size_t find_unmarked(Key key) const noexcept {
    return simd::find_u64(unmarked_.data(), unmarked_.size(), key);
  }

  void mark(Key key) {
    const std::size_t i = find_unmarked(key);
    if (i != simd::kNpos) remove_unmarked_at(i);
  }

  void remove_unmarked_at(std::size_t i) {
    unmarked_[i] = unmarked_.back();
    unmarked_.pop_back();
  }

  Xoshiro256 rng_;
  std::vector<Key> unmarked_;  // unmarked keys (each once), unordered
  std::uint64_t phases_ = 0;
};

}  // namespace rdcn::paging
