// rdcn: CLOCK (second-chance) paging — the classic LRU approximation used
// by real VM systems; included as an ablation engine for R-BMA.
#pragma once

#include "common/simd.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class ClockPaging final : public PagingAlgorithm {
 public:
  explicit ClockPaging(std::size_t capacity) : PagingAlgorithm(capacity) {
    ring_.reserve(capacity);
  }

  std::string name() const override { return "clock"; }

 protected:
  void on_hit(Key key) override {
    // ring_ holds exactly the cached keys, each once.
    const std::size_t i = simd::find_u64(ring_.data(), ring_.size(), key);
    RDCN_DCHECK(i != simd::kNpos);
    ref_[i] = 1;
  }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) {
      // Sweep: clear reference bits until an unreferenced slot is found.
      while (ref_[hand_] != 0) {
        ref_[hand_] = 0;
        hand_ = (hand_ + 1) % ring_.size();
      }
      const Key victim = ring_[hand_];
      evict_from_cache(victim, evicted);
      ring_[hand_] = key;
      ref_[hand_] = 1;
      hand_ = (hand_ + 1) % ring_.size();
    } else {
      ring_.push_back(key);
      ref_.push_back(1);
    }
  }

 private:
  std::vector<Key> ring_;
  std::vector<std::uint8_t> ref_;
  std::size_t hand_ = 0;
};

}  // namespace rdcn::paging
