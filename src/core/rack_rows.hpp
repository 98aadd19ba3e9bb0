// rdcn: BMA's per-rack rows — the matching edges incident to each rack.
//
// Each rack keeps one ranked row (common/ranked_row.hpp) of its incident
// matching edges:
//
//   key   canonical pair id of the incident matching edge,
//   rank  RankedRow::pack(usage, admission clock tick), where usage counts
//         direct serves since admission (kept at BOTH endpoints of an
//         edge — a direct serve bumps both rows),
//
// so BMA's Θ(b) scan is one simd::find_argmin_u64 pass over the row's two
// columns and no hash probe.  The rows are the only home of these three
// facts; they change at admission, eviction and the direct-serve usage
// bump.  Admission ticks are unique, so the least (usage, admitted_at)
// rank has a unique winner and row/lane order cannot affect the ledger.
// Both halves stay below 2^32 while a replay stays below 2^32 requests
// (scenario::check_run_shape refuses longer ones).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ranked_row.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class RackRows {
 public:
  static constexpr std::size_t kNone = simd::kNpos;

  RackRows() = default;
  explicit RackRows(std::size_t num_racks) : rows_(num_racks) {}

  std::size_t size(Rack w) const noexcept { return rows_[w].size(); }
  const RankedRow& row(Rack w) const noexcept { return rows_[w]; }

  /// What a rack scan yields: the eviction candidate (key of the least
  /// (usage, admitted_at) incident edge; 0 when the row is empty) plus the
  /// row index of `request_key` when that edge is incident here (kNone
  /// otherwise) — the membership side-channel that lets the serve loop
  /// skip a separate membership probe.
  struct ScanResult {
    std::uint64_t victim_key;
    std::size_t request_index;
  };

  /// The Θ(b) scan as one pass over the row's columns.
  ScanResult scan(Rack w, std::uint64_t request_key) const noexcept {
    const RankedRow& row = rows_[w];
    const simd::FindArgmin s = row.scan(request_key);
    return {s.least == kNone ? 0 : row.key(s.least), s.found};
  }

  /// Appends the freshly admitted edge at endpoint `w` (usage 0, admission
  /// tick `now`).
  void admit(Rack w, std::uint64_t key, std::uint64_t now) {
    rows_[w].push(key, RankedRow::pack(0, now));
  }

  /// Swap-erases `key` from the row at `w`; returns whether it was found.
  bool evict(Rack w, std::uint64_t key) noexcept {
    RankedRow& row = rows_[w];
    const std::size_t i = row.find(key);
    if (i == kNone) return false;
    row.erase(i);
    return true;
  }

  /// Direct-serve bump of the edge's usage counter at one endpoint.
  void bump_usage(Rack w, std::size_t index) noexcept {
    RDCN_DCHECK(index < rows_[w].size());
    rows_[w].bump_primary(index);
  }

  /// Hints the cache that `w`'s scan columns are about to be read.
  /// Advisory only; used by batch serve loops that know the next request.
  void prefetch(Rack w) const noexcept { rows_[w].prefetch(); }

 private:
  std::vector<RankedRow> rows_;
};

}  // namespace rdcn::core
