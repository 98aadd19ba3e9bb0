// rdcn: ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//
// Balances recency (list T1: seen once) against frequency (list T2: seen
// at least twice) with ghost lists B1/B2 remembering recently evicted keys;
// a hit in a ghost list shifts the adaptation target p toward the list
// that would have kept the key.  Self-tuning between LRU-like and LFU-like
// behaviour, which makes it a natural "best deterministic heuristic"
// engine for the R-BMA ablation on mixed traffic.
#pragma once

#include <list>

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
    Locator* loc = where_.find(key);
    RDCN_DCHECK(loc != nullptr && (loc->list == List::kT1 ||
                                   loc->list == List::kT2));
    list_of(loc->list).erase(loc->pos);
    t2_.push_front(key);
    *loc = Locator{List::kT2, t2_.begin()};
  }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    // NOTE: copy the locator — replace() inserts into where_, which can
    // rehash and invalidate the pointer returned by find().
    const Locator* ghost_ptr = where_.find(key);
    if (ghost_ptr != nullptr && ghost_ptr->list == List::kB1) {
      const Locator ghost = *ghost_ptr;
      // Ghost hit in B1: recency was undervalued — grow p.
      const std::size_t delta =
          b1_.size() >= b2_.size() ? 1 : (b2_.size() / b1_.size());
      p_ = std::min(capacity(), p_ + delta);
      replace(key, evicted);
      b1_.erase(ghost.pos);
      t2_.push_front(key);
      where_[key] = Locator{List::kT2, t2_.begin()};
      return;
    }
    if (ghost_ptr != nullptr && ghost_ptr->list == List::kB2) {
      const Locator ghost = *ghost_ptr;
      // Ghost hit in B2: frequency was undervalued — shrink p.
      const std::size_t delta =
          b2_.size() >= b1_.size() ? 1 : (b1_.size() / b2_.size());
      p_ = p_ > delta ? p_ - delta : 0;
      replace(key, evicted);
      b2_.erase(ghost.pos);
      t2_.push_front(key);
      where_[key] = Locator{List::kT2, t2_.begin()};
      return;
    }

    // Brand-new key.
    const std::size_t c = capacity();
    if (t1_.size() + b1_.size() == c) {
      if (t1_.size() < c) {
        drop_ghost(b1_);
        replace(key, evicted);
      } else {
        // T1 itself is full: evict its LRU directly (no ghost space).
        evict_lru(t1_, List::kT1, evicted, /*to_ghost=*/false);
      }
    } else if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >= c) {
      if (t1_.size() + t2_.size() + b1_.size() + b2_.size() == 2 * c) {
        drop_ghost(b2_);
      }
      replace(key, evicted);
    }
    t1_.push_front(key);
    where_[key] = Locator{List::kT1, t1_.begin()};
  }

 private:
  enum class List : std::uint8_t { kT1, kT2, kB1, kB2 };

  struct Locator {
    List list = List::kT1;
    std::list<Key>::iterator pos{};
  };

  std::list<Key>& list_of(List which) {
    switch (which) {
      case List::kT1: return t1_;
      case List::kT2: return t2_;
      case List::kB1: return b1_;
      case List::kB2: return b2_;
    }
    return t1_;
  }

  /// ARC's REPLACE: evict the LRU of T1 or T2 (by the adaptation target p)
  /// into its ghost list.
  void replace(Key incoming, std::vector<Key>& evicted) {
    if (t1_.size() + t2_.size() < capacity()) return;  // room already
    const Locator* ghost = where_.find(incoming);
    const bool incoming_in_b2 =
        ghost != nullptr && ghost->list == List::kB2;
    if (!t1_.empty() &&
        (t1_.size() > p_ || (incoming_in_b2 && t1_.size() == p_))) {
      evict_lru(t1_, List::kT1, evicted, /*to_ghost=*/true);
    } else if (!t2_.empty()) {
      evict_lru(t2_, List::kT2, evicted, /*to_ghost=*/true);
    } else {
      evict_lru(t1_, List::kT1, evicted, /*to_ghost=*/true);
    }
  }

  void evict_lru(std::list<Key>& from, List which, std::vector<Key>& evicted,
                 bool to_ghost) {
    RDCN_DCHECK(!from.empty());
    const Key victim = from.back();
    from.pop_back();
    if (to_ghost) {
      std::list<Key>& ghost = which == List::kT1 ? b1_ : b2_;
      ghost.push_front(victim);
      where_[victim] =
          Locator{which == List::kT1 ? List::kB1 : List::kB2, ghost.begin()};
    } else {
      where_.erase(victim);
    }
    evict_from_cache(victim, evicted);
  }

  void drop_ghost(std::list<Key>& ghost) {
    RDCN_DCHECK(!ghost.empty());
    where_.erase(ghost.back());
    ghost.pop_back();
  }

  std::list<Key> t1_, t2_;  // resident: seen once / seen twice+ (MRU front)
  std::list<Key> b1_, b2_;  // ghosts of t1_/t2_ evictions
  FlatMap<Locator> where_;
  std::size_t p_ = 0;  // target size of t1_
};

}  // namespace rdcn::paging
