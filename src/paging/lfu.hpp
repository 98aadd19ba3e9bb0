// rdcn: LFU (least-frequently-used) paging.
//
// Evicts the cached key with the fewest accesses since it entered the
// cache (ties: least recently used).  Not competitive in the worst case
// (frequency counts can be poisoned by history), but a strong heuristic on
// heavy-tailed traffic and therefore an interesting R-BMA engine ablation:
// it approximates "keep the elephants matched".
//
// Implementation: one ranked row (common/ranked_row.hpp) ranked by
// RankedRow::pack(access count, last-access tick); the victim is the row's
// least rank.  Both halves count this engine's accesses, so they stay
// below 2^32 while a replay does (scenario::check_run_shape).
#pragma once

#include "common/ranked_row.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Lfu final : public PagingAlgorithm {
 public:
  explicit Lfu(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "lfu"; }

  /// Test hook: current access count of a cached key (0 if absent).
  std::uint64_t frequency(Key key) const {
    const std::size_t i = row_.find(key);
    return i != simd::kNpos ? RankedRow::primary(row_.rank(i)) : 0;
  }

 protected:
  void on_hit(Key key) override {
    std::uint64_t& rank = row_.rank(row_.find(key));
    rank = RankedRow::pack(RankedRow::primary(rank) + 1, ++tick_);
  }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) evict_from_cache(row_.pop_min(), evicted);
    row_.push(key, RankedRow::pack(1, ++tick_));
  }

 private:
  RankedRow row_;  // the cached keys
  std::uint64_t tick_ = 0;
};

}  // namespace rdcn::paging
