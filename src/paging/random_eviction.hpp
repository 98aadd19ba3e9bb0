// rdcn: memoryless random eviction — evicts a uniformly random cached key
// on every fault.  (b-competitive in expectation; included as the weakest
// randomized baseline for the paging-engine ablation.)
#pragma once

#include "common/rng.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class RandomEviction final : public PagingAlgorithm {
 public:
  RandomEviction(std::size_t capacity, Xoshiro256 rng)
      : PagingAlgorithm(capacity), rng_(rng) {
    keys_.reserve(capacity);
  }

  std::string name() const override { return "random"; }

 protected:
  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) {
      const std::size_t i = rng_.next_below(keys_.size());
      const Key victim = keys_[i];
      keys_[i] = keys_.back();
      keys_.pop_back();
      evict_from_cache(victim, evicted);
    }
    keys_.push_back(key);
  }

 private:
  Xoshiro256 rng_;
  std::vector<Key> keys_;  // cached keys, unordered
};

}  // namespace rdcn::paging
