// rdcn: least-recently-used paging (deterministic, b-competitive).
// One ranked row (common/ranked_row.hpp) ranked by last-access tick; the
// victim is the row's least rank.
#pragma once

#include "common/ranked_row.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Lru final : public PagingAlgorithm {
 public:
  explicit Lru(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "lru"; }

 protected:
  void on_hit(Key key) override { row_.rank(row_.find(key)) = ++tick_; }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) evict_from_cache(row_.pop_min(), evicted);
    row_.push(key, ++tick_);
  }

 private:
  RankedRow row_;  // the cached keys
  std::uint64_t tick_ = 0;
};

}  // namespace rdcn::paging
