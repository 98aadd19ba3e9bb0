// rdcn: ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//
// Balances recency (list T1: seen once) against frequency (list T2: seen
// at least twice) with ghost lists B1/B2 remembering recently evicted keys;
// a hit in a ghost list shifts the adaptation target p toward the list
// that would have kept the key.  Self-tuning between LRU-like and LFU-like
// behaviour, which makes it a natural "best deterministic heuristic"
// engine for the R-BMA ablation on mixed traffic.
//
// Implementation: the four lists are four ranked rows
// (common/ranked_row.hpp) ranked by the tick at which a key entered or was
// last promoted within its list; a list's LRU is its row's least rank.
#pragma once

#include <algorithm>

#include "common/ranked_row.hpp"
#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Arc final : public PagingAlgorithm {
 public:
  explicit Arc(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "arc"; }

  /// Test hooks.
  std::size_t recency_list_size() const noexcept { return t1_.size(); }
  std::size_t frequency_list_size() const noexcept { return t2_.size(); }
  std::size_t adaptation_target() const noexcept { return p_; }

 protected:
  void on_hit(Key key) override {
    // Hit in T1 or T2: promote to MRU of T2 (now seen more than once).
    const std::size_t i = t1_.find(key);
    if (i != simd::kNpos) {
      t1_.erase(i);
      t2_.push(key, ++tick_);
    } else {
      t2_.rank(t2_.find(key)) = ++tick_;
    }
  }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (const std::size_t i = b1_.find(key); i != simd::kNpos) {
      // Ghost hit in B1: recency was undervalued — grow p.
      const std::size_t delta =
          b1_.size() >= b2_.size() ? 1 : (b2_.size() / b1_.size());
      p_ = std::min(capacity(), p_ + delta);
      b1_.erase(i);
      replace(/*incoming_in_b2=*/false, evicted);
      t2_.push(key, ++tick_);
      return;
    }
    if (const std::size_t i = b2_.find(key); i != simd::kNpos) {
      // Ghost hit in B2: frequency was undervalued — shrink p.
      const std::size_t delta =
          b2_.size() >= b1_.size() ? 1 : (b1_.size() / b2_.size());
      p_ = p_ > delta ? p_ - delta : 0;
      b2_.erase(i);
      replace(/*incoming_in_b2=*/true, evicted);
      t2_.push(key, ++tick_);
      return;
    }

    // Brand-new key.
    const std::size_t c = capacity();
    const std::size_t total =
        t1_.size() + t2_.size() + b1_.size() + b2_.size();
    if (t1_.size() + b1_.size() == c) {
      if (t1_.size() < c) {
        b1_.pop_min();
        replace(/*incoming_in_b2=*/false, evicted);
      } else {
        // T1 itself is full: evict its LRU directly (no ghost space).
        evict_from_cache(t1_.pop_min(), evicted);
      }
    } else if (total >= c) {
      if (total == 2 * c) b2_.pop_min();
      replace(/*incoming_in_b2=*/false, evicted);
    }
    t1_.push(key, ++tick_);
  }

 private:
  /// ARC's REPLACE: evict the LRU of T1 or T2 (by the adaptation target p)
  /// into its ghost list.
  void replace(bool incoming_in_b2, std::vector<Key>& evicted) {
    if (t1_.size() + t2_.size() < capacity()) return;  // room already
    const bool from_t1 =
        t2_.empty() ||
        (!t1_.empty() &&
         (t1_.size() > p_ || (incoming_in_b2 && t1_.size() == p_)));
    RankedRow& from = from_t1 ? t1_ : t2_;
    const Key victim = from.pop_min();
    (from_t1 ? b1_ : b2_).push(victim, ++tick_);
    evict_from_cache(victim, evicted);
  }

  RankedRow t1_, t2_;  // resident: seen once / seen twice+
  RankedRow b1_, b2_;  // ghosts of t1_/t2_ evictions
  std::size_t p_ = 0;  // target size of t1_
  std::uint64_t tick_ = 0;
};

}  // namespace rdcn::paging
