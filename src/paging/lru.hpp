// rdcn: least-recently-used paging (deterministic, b-competitive).
// Intrusive doubly-linked list over slots stored in a free-list arena;
// key -> slot index via flat hash.
#pragma once

#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Lru final : public PagingAlgorithm {
 public:
  explicit Lru(std::size_t capacity) : PagingAlgorithm(capacity) {
    slots_.reserve(capacity);
  }

  std::string name() const override { return "lru"; }

 protected:
  void on_hit(Key key) override {
    const std::uint32_t* s = index_.find(key);
    RDCN_DCHECK(s != nullptr);
    touch(*s);
  }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) {
      // Evict the tail (least recently used).
      RDCN_DCHECK(tail_ != kNil);
      const std::uint32_t victim = tail_;
      unlink(victim);
      evict_from_cache(slots_[victim].key, evicted);
      index_.erase(slots_[victim].key);
      slots_[victim].next = free_;
      free_ = victim;
    }
    const std::uint32_t s = alloc_slot(key);
    index_[key] = s;
    push_front(s);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    Key key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint32_t alloc_slot(Key key) {
    std::uint32_t s;
    if (free_ != kNil) {
      s = free_;
      free_ = slots_[s].next;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back({});
    }
    slots_[s].key = key;
    return s;
  }

  void push_front(std::uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void unlink(std::uint32_t s) {
    const std::uint32_t p = slots_[s].prev, n = slots_[s].next;
    if (p != kNil) slots_[p].next = n; else head_ = n;
    if (n != kNil) slots_[n].prev = p; else tail_ = p;
  }

  void touch(std::uint32_t s) {
    if (head_ == s) return;
    unlink(s);
    push_front(s);
  }

  std::vector<Slot> slots_;
  FlatMap<std::uint32_t> index_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_ = kNil;
};

}  // namespace rdcn::paging
