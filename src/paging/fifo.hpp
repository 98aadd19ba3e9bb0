// rdcn: first-in-first-out paging (deterministic, b-competitive).
// One ranked row (common/ranked_row.hpp) ranked by insertion tick; hits
// leave it untouched.
#pragma once

#include "common/ranked_row.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Fifo final : public PagingAlgorithm {
 public:
  explicit Fifo(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "fifo"; }

 protected:
  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) evict_from_cache(row_.pop_min(), evicted);
    row_.push(key, ++tick_);
  }

 private:
  RankedRow row_;  // the cached keys
  std::uint64_t tick_ = 0;
};

}  // namespace rdcn::paging
