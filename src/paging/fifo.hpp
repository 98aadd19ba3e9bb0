// rdcn: first-in-first-out paging (deterministic, b-competitive).
#pragma once

#include <deque>

#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Fifo final : public PagingAlgorithm {
 public:
  explicit Fifo(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "fifo"; }

 protected:
  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) {
      RDCN_DCHECK(!queue_.empty());
      evict_from_cache(queue_.front(), evicted);
      queue_.pop_front();
    }
    queue_.push_back(key);
  }

 private:
  std::deque<Key> queue_;
};

}  // namespace rdcn::paging
