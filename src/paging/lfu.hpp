// rdcn: LFU (least-frequently-used) paging.
//
// Evicts the cached key with the fewest accesses since it entered the
// cache (ties: least recently used).  Not competitive in the worst case
// (frequency counts can be poisoned by history), but a strong heuristic on
// heavy-tailed traffic and therefore an interesting R-BMA engine ablation:
// it approximates "keep the elephants matched".
//
// Implementation: O(1) amortized via frequency buckets (the classic
// constant-time LFU structure): buckets are a doubly-linked list of
// frequencies, each holding an LRU-ordered list of keys.
#pragma once

#include <list>

#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Lfu final : public PagingAlgorithm {
 public:
  explicit Lfu(std::size_t capacity) : PagingAlgorithm(capacity) {}

  std::string name() const override { return "lfu"; }

  /// Test hook: current access count of a cached key (0 if absent).
  std::uint64_t frequency(Key key) const {
    const Locator* loc = where_.find(key);
    return loc != nullptr ? loc->bucket->frequency : 0;
  }

 protected:
  void on_hit(Key key) override { bump(key); }

  void on_fault(Key key, std::vector<Key>& evicted) override {
    if (cache_full()) {
      // Evict from the lowest-frequency bucket, LRU within the bucket.
      RDCN_DCHECK(!buckets_.empty());
      Bucket& lowest = buckets_.front();
      const Key victim = lowest.keys.back();
      lowest.keys.pop_back();
      where_.erase(victim);
      if (lowest.keys.empty()) buckets_.pop_front();
      evict_from_cache(victim, evicted);
    }
    // Insert at frequency 1.
    if (buckets_.empty() || buckets_.front().frequency != 1) {
      buckets_.push_front(Bucket{1, {}});
    }
    buckets_.front().keys.push_front(key);
    where_[key] = Locator{buckets_.begin(), buckets_.front().keys.begin()};
  }

 private:
  struct Bucket {
    std::uint64_t frequency;
    std::list<Key> keys;  // MRU at front
  };
  using BucketIt = std::list<Bucket>::iterator;

  struct Locator {
    BucketIt bucket;
    std::list<Key>::iterator pos;
  };

  void bump(Key key) {
    Locator* loc = where_.find(key);
    RDCN_DCHECK(loc != nullptr);
    const BucketIt cur = loc->bucket;
    const std::uint64_t next_freq = cur->frequency + 1;
    BucketIt nxt = std::next(cur);
    if (nxt == buckets_.end() || nxt->frequency != next_freq) {
      nxt = buckets_.insert(nxt, Bucket{next_freq, {}});
    }
    nxt->keys.splice(nxt->keys.begin(), cur->keys, loc->pos);
    loc->bucket = nxt;
    loc->pos = nxt->keys.begin();
    if (cur->keys.empty()) buckets_.erase(cur);
  }

  std::list<Bucket> buckets_;   // ascending frequency order
  FlatMap<Locator> where_;
};

}  // namespace rdcn::paging
