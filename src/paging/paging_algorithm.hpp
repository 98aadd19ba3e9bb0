// rdcn: the paging (caching) substrate.
//
// Theorem 2 of the paper reduces the uniform (b,a)-matching problem to
// (b,a)-paging: R-BMA runs one paging algorithm per rack, with cache
// capacity b, over the node pairs incident to that rack.  This module
// provides the abstract interface plus the classic algorithms:
//
//   Marking        randomized marking (Fiat et al.); against an offline
//                  optimum with cache a <= b its expected fault rate is
//                  within 2·ln(b/(b-a+1)) + O(1) of optimal (Young '91) —
//                  the engine that gives R-BMA its O(log b) guarantee.
//   LRU, FIFO,     deterministic classics (b-competitive), used as
//   CLOCK          ablation engines inside R-BMA.
//   RandomEviction memoryless randomized baseline.
//   FlushWhenFull  the textbook worst-reasonable baseline.
//   Belady         offline optimal (farthest-in-future), needs the full
//                  sequence up front; used for ground truth in tests and
//                  for the SO-style comparisons.
//
// Cost model: non-bypassing page model — a requested key is always fetched;
// a fault costs 1, eviction is free.  (The matching layer accounts its own
// α-costs; see core/r_bma.cpp for how the two models are glued, mirroring
// the remarks after Theorem 2.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_hash.hpp"

namespace rdcn::paging {

using Key = std::uint64_t;

/// Abstract non-bypassing paging algorithm with capacity `capacity()`.
class PagingAlgorithm {
 public:
  explicit PagingAlgorithm(std::size_t capacity) : capacity_(capacity) {
    RDCN_ASSERT_MSG(capacity >= 1, "paging cache must hold at least 1 key");
  }
  virtual ~PagingAlgorithm() = default;

  PagingAlgorithm(const PagingAlgorithm&) = delete;
  PagingAlgorithm& operator=(const PagingAlgorithm&) = delete;

  /// Serves a request: `key` is in the cache afterwards.  Keys evicted to
  /// make room are appended to `evicted` (at most one for the classic
  /// algorithms).  Returns true on a fault (key was absent).
  bool request(Key key, std::vector<Key>& evicted) {
    const bool fault = !cache_.contains(key);
    if (fault) {
      ++faults_;
      on_fault(key, evicted);
      cache_.insert(key);
      RDCN_ASSERT_MSG(cache_.size() <= capacity_,
                      "paging algorithm exceeded its capacity");
    } else {
      ++hits_;
      on_hit(key);
    }
    return fault;
  }

  bool contains(Key key) const noexcept { return cache_.contains(key); }
  std::size_t size() const noexcept { return cache_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  std::uint64_t faults() const noexcept { return faults_; }
  std::uint64_t hits() const noexcept { return hits_; }

  /// Snapshot of cached keys in the membership set's slot order.  The
  /// order is part of the behaviour: marking starts a phase from this list
  /// and draws its victims by index, so the r_bma golden ledger anchors
  /// pin it.
  std::vector<Key> cached_keys() const {
    std::vector<Key> keys;
    keys.reserve(cache_.size());
    cache_.for_each([&](Key k) { keys.push_back(k); });
    return keys;
  }

  virtual std::string name() const = 0;

 protected:
  /// Called on a fault before `key` is inserted.  Must evict (via
  /// evict_from_cache) until size() < capacity().
  virtual void on_fault(Key key, std::vector<Key>& evicted) = 0;

  /// Called on a hit.
  virtual void on_hit(Key /*key*/) {}

  /// Removes `key` from the membership set and records it in `evicted`.
  void evict_from_cache(Key key, std::vector<Key>& evicted) {
    const bool was = cache_.erase(key);
    RDCN_ASSERT_MSG(was, "evicting a key that is not cached");
    evicted.push_back(key);
  }

  bool cache_full() const noexcept { return cache_.size() >= capacity_; }

 private:
  FlatSet cache_;
  std::size_t capacity_;
  std::uint64_t faults_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace rdcn::paging
