// rdcn: BMA's per-rack rows — the matching edges incident to each rack.
//
// Each rack keeps one dense row of its incident matching edges, stored as
// columns
//
//   keys[]         canonical pair ids of the incident matching edges,
//   usage[]        direct serves since admission (kept at BOTH endpoints
//                  of an edge — a direct serve bumps both rows),
//   admitted_at[]  admission clock tick,
//
// so BMA's Θ(b) scan is two streaming kernel calls over contiguous memory
// (simd::argmin_u64_pair over usage/admitted_at, simd::find_u64 over keys)
// and no hash probe.  The rows are the only home of these three facts;
// they change at admission, eviction and the direct-serve usage bump.
// Columns keep 16 inline entries so the paper's b range (3–18) stays off
// the heap.
//
// Rows grow by push_back on admission and shrink by swap-erase on
// eviction, and admission ticks are unique, so the lexicographic
// (usage, admitted_at) argmin has a unique winner and iteration/lane order
// cannot affect the ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "common/small_vector.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class RackRows {
 public:
  static constexpr std::size_t kNone = simd::kNpos;

  RackRows() = default;
  explicit RackRows(std::size_t num_racks) : rows_(num_racks) {}

  std::size_t size(Rack w) const noexcept { return rows_[w].keys.size(); }

  /// What a rack scan yields: the eviction candidate (key of the least
  /// (usage, admitted_at) incident edge; 0 when the row is empty) plus the
  /// row index of `request_key` when that edge is incident here (kNone
  /// otherwise) — the membership side-channel that lets the serve loop
  /// skip a separate adjacency probe.
  struct ScanResult {
    std::uint64_t victim_key;
    std::size_t request_index;
  };

  /// The Θ(b) scan as two streaming kernels over the row's columns.
  ScanResult scan(Rack w, std::uint64_t request_key) const noexcept {
    const Row& row = rows_[w];
    const std::size_t n = row.keys.size();
    ScanResult out;
    out.request_index = simd::find_u64(row.keys.data(), n, request_key);
    const std::size_t min_index =
        simd::argmin_u64_pair(row.usage.data(), row.admitted_at.data(), n);
    out.victim_key = min_index == simd::kNpos ? 0 : row.keys[min_index];
    return out;
  }

  /// Appends the freshly admitted edge at endpoint `w` (usage 0, admission
  /// tick `now`).
  void admit(Rack w, std::uint64_t key, std::uint64_t now) {
    Row& row = rows_[w];
    row.keys.push_back(key);
    row.usage.push_back(0);
    row.admitted_at.push_back(now);
  }

  /// Swap-erases `key` from the row at `w`; returns whether it was found.
  bool evict(Rack w, std::uint64_t key) noexcept {
    Row& row = rows_[w];
    const std::size_t i =
        simd::find_u64(row.keys.data(), row.keys.size(), key);
    if (i == simd::kNpos) return false;
    row.keys.swap_erase(i);
    row.usage.swap_erase(i);
    row.admitted_at.swap_erase(i);
    return true;
  }

  /// Direct-serve bump of the edge's usage counter at one endpoint.
  void bump_usage(Rack w, std::size_t index) noexcept {
    RDCN_DCHECK(index < rows_[w].usage.size());
    ++rows_[w].usage[index];
  }

  /// Hints the cache that `w`'s scan columns are about to be read.
  /// Advisory only; used by batch serve loops that know the next request.
  void prefetch(Rack w) const noexcept {
    const Row& row = rows_[w];
    __builtin_prefetch(row.keys.data());
    __builtin_prefetch(row.usage.data());
    __builtin_prefetch(row.admitted_at.data());
  }

 private:
  /// Inline capacity 16 per column keeps the paper's b range off the heap;
  /// the columns of one row grow and shrink in lockstep.
  struct Row {
    SmallVector<std::uint64_t, 16> keys;
    SmallVector<std::uint64_t, 16> usage;
    SmallVector<std::uint64_t, 16> admitted_at;
  };

  std::vector<Row> rows_;
};

}  // namespace rdcn::core
