// rdcn: Belady's MIN — the offline-optimal paging algorithm (evict the
// cached key whose next use lies farthest in the future).  Optimal for
// non-bypassing paging with unit fault cost, so it provides the OPT side of
// every empirical competitive-ratio measurement in the tests and benches.
//
// Belady must see the whole request sequence up front; request() calls must
// then replay exactly that sequence.
#pragma once

#include <queue>

#include "paging/paging_algorithm.hpp"

namespace rdcn::paging {

class Belady final : public PagingAlgorithm {
 public:
  Belady(std::size_t capacity, std::vector<Key> sequence);

  std::string name() const override { return "belady"; }

  /// Convenience: runs the whole sequence and returns the fault count.
  static std::uint64_t optimal_faults(std::size_t capacity,
                                      const std::vector<Key>& sequence);

 protected:
  void on_hit(Key key) override;
  void on_fault(Key key, std::vector<Key>& evicted) override;

 private:
  void advance(Key key);

  static constexpr std::size_t kNever = ~std::size_t{0};

  std::vector<Key> keys_;         // distinct keys, sorted; id = index
  std::vector<std::size_t> ids_;  // the sequence as ids
  // next_use_[i] = index of the next occurrence of ids_[i] after i (kNever
  // if none).
  std::vector<std::size_t> next_use_;
  std::size_t cursor_ = 0;
  // Max-heap of (next-use index, id), one record per request; stale
  // records are skipped on pop by checking against current_next_.
  std::priority_queue<std::pair<std::size_t, std::size_t>> heap_;
  std::vector<std::size_t> current_next_;  // id -> its latest next use
};

}  // namespace rdcn::paging
