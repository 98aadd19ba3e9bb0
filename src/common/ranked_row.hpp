// rdcn: a ranked row — a handful of keys, each ranked by two u64 columns,
// that evicts the least.
//
// One dense row of three parallel columns,
//
//   keys[]       the row's keys (each at most once),
//   primary[]    first rank column,
//   secondary[]  second rank column (breaks ties on primary),
//
// so a lookup is simd::find_u64 over keys and the eviction victim is
// simd::argmin_u64_pair over (primary, secondary): two streaming kernels
// over contiguous memory and no hash probe.  Rows grow by push and shrink
// by swap-erase, so row order is arbitrary; every user keeps a unique tick
// in one rank column, so the lexicographic argmin never meets a full tie
// and neither row order nor SIMD lane order can pick a different victim.
// Both rank columns must stay below 2^63 (the argmin's value-range
// contract, common/simd.hpp).
//
// Users: BMA's per-rack rows (core/rack_rows.hpp, ranked by (usage,
// admission tick)) and the LRU, FIFO, LFU and ARC paging engines (ranked
// by access or insertion ticks).  Columns keep 16 inline entries so the
// paper's b range (3–18) stays off the heap.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"
#include "common/small_vector.hpp"

namespace rdcn {

class RankedRow {
 public:
  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }

  std::uint64_t key(std::size_t i) const noexcept { return keys_[i]; }
  std::uint64_t& primary(std::size_t i) noexcept { return primary_[i]; }
  std::uint64_t& secondary(std::size_t i) noexcept { return secondary_[i]; }
  std::uint64_t primary(std::size_t i) const noexcept { return primary_[i]; }

  /// Index of `key`; simd::kNpos when absent.
  std::size_t find(std::uint64_t key) const noexcept {
    return simd::find_u64(keys_.data(), keys_.size(), key);
  }

  /// Index of the least (primary, secondary) entry; simd::kNpos when empty.
  std::size_t argmin() const noexcept {
    return simd::argmin_u64_pair(primary_.data(), secondary_.data(),
                                 keys_.size());
  }

  void push(std::uint64_t key, std::uint64_t primary,
            std::uint64_t secondary = 0) {
    keys_.push_back(key);
    primary_.push_back(primary);
    secondary_.push_back(secondary);
  }

  /// Swap-erases entry `i`.
  void erase(std::size_t i) noexcept {
    keys_.swap_erase(i);
    primary_.swap_erase(i);
    secondary_.swap_erase(i);
  }

  /// Removes the least entry and returns its key.  The row must not be
  /// empty.
  std::uint64_t pop_min() noexcept {
    RDCN_DCHECK(!empty());
    const std::size_t i = argmin();
    const std::uint64_t victim = keys_[i];
    erase(i);
    return victim;
  }

  /// Hints the cache that the row's columns are about to be read.
  void prefetch() const noexcept {
    __builtin_prefetch(keys_.data());
    __builtin_prefetch(primary_.data());
    __builtin_prefetch(secondary_.data());
  }

 private:
  SmallVector<std::uint64_t, 16> keys_;
  SmallVector<std::uint64_t, 16> primary_;
  SmallVector<std::uint64_t, 16> secondary_;
};

}  // namespace rdcn
