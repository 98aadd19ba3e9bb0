// rdcn: a ranked row — a handful of keys, each with one u64 rank, that
// evicts the least.
//
// One dense row of two parallel columns,
//
//   keys[]   the row's keys (each at most once),
//   ranks[]  one rank per key, ordered by a plain u64 `<`,
//
// so one simd::find_argmin_u64 pass over both columns yields a key's index
// and the eviction victim together, a lookup alone is simd::find_u64, and
// no hash probe is paid.  A user that ranks by a pair stores pack(primary,
// secondary) = primary << 32 | secondary, whose u64 order is the pair's
// lexicographic order while both halves stay below 2^32; pack() and
// bump_primary() check that bound in every build type.  Rows grow by push
// and shrink by swap-erase, so row order is arbitrary; every user keeps a
// unique tick in its rank, so the argmin never meets a tie and neither row
// order nor SIMD lane order can pick a different victim.
//
// Users: BMA's per-rack rows (core/rack_rows.hpp, ranked by (usage,
// admission tick)), the LFU engine (by (count, last-access tick)) and the
// LRU, FIFO and ARC engines (by one access or insertion tick).  Columns
// keep 16 inline entries so the paper's b range (3–18) stays off the heap.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"
#include "common/small_vector.hpp"

namespace rdcn {

class RankedRow {
 public:
  /// The rank of (primary, secondary), ordered lexicographically.  Both
  /// halves must be below 2^32.
  static std::uint64_t pack(std::uint64_t primary,
                            std::uint64_t secondary) noexcept {
    RDCN_ASSERT_MSG((primary | secondary) >> 32 == 0,
                    "ranked row: a rank half does not fit in 32 bits");
    return primary << 32 | secondary;
  }

  /// The primary half of a packed rank.
  static std::uint64_t primary(std::uint64_t rank) noexcept {
    return rank >> 32;
  }

  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }

  std::uint64_t key(std::size_t i) const noexcept { return keys_[i]; }
  std::uint64_t& rank(std::size_t i) noexcept { return ranks_[i]; }
  std::uint64_t rank(std::size_t i) const noexcept { return ranks_[i]; }

  /// Adds one to the primary half of entry `i`'s packed rank.
  void bump_primary(std::size_t i) noexcept {
    RDCN_ASSERT_MSG(primary(ranks_[i]) < 0xFFFFFFFFu,
                    "ranked row: a rank half does not fit in 32 bits");
    ranks_[i] += std::uint64_t{1} << 32;
  }

  /// Index of `key`; simd::kNpos when absent.
  std::size_t find(std::uint64_t key) const noexcept {
    return simd::find_u64(keys_.data(), keys_.size(), key);
  }

  /// One pass over the row: the index of `key` and of the least rank,
  /// each simd::kNpos when there is none.
  simd::FindArgmin scan(std::uint64_t key) const noexcept {
    return simd::find_argmin_u64(keys_.data(), ranks_.data(), keys_.size(),
                                 key);
  }

  void push(std::uint64_t key, std::uint64_t rank) {
    keys_.push_back(key);
    ranks_.push_back(rank);
  }

  /// Swap-erases entry `i`.
  void erase(std::size_t i) noexcept {
    keys_.swap_erase(i);
    ranks_.swap_erase(i);
  }

  /// Removes the least entry and returns its key.  The row must not be
  /// empty.
  std::uint64_t pop_min() noexcept {
    RDCN_DCHECK(!empty());
    const std::size_t i = scan(0).least;  // the needle's index goes unused
    const std::uint64_t victim = keys_[i];
    erase(i);
    return victim;
  }

  /// Hints the cache that the row's columns are about to be read.
  void prefetch() const noexcept {
    __builtin_prefetch(keys_.data());
    __builtin_prefetch(ranks_.data());
  }

 private:
  SmallVector<std::uint64_t, 16> keys_;
  SmallVector<std::uint64_t, 16> ranks_;
};

}  // namespace rdcn
