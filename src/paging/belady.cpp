#include "paging/belady.hpp"

#include <algorithm>

namespace rdcn::paging {

Belady::Belady(std::size_t capacity, std::vector<Key> sequence)
    : PagingAlgorithm(capacity), keys_(sequence) {
  // Dense ids: a key's rank among the sequence's distinct keys.
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  ids_.resize(sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i)
    ids_[i] = static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), sequence[i]) -
        keys_.begin());
  // Backward scan to compute each position's next occurrence.
  next_use_.assign(ids_.size(), kNever);
  std::vector<std::size_t> last_seen(keys_.size(), kNever);
  for (std::size_t i = ids_.size(); i-- > 0;) {
    next_use_[i] = last_seen[ids_[i]];
    last_seen[ids_[i]] = i;
  }
  current_next_.assign(keys_.size(), kNever);
}

void Belady::advance(Key key) {
  RDCN_ASSERT_MSG(cursor_ < ids_.size(),
                  "Belady driven past its announced sequence");
  const std::size_t id = ids_[cursor_];
  RDCN_ASSERT_MSG(keys_[id] == key,
                  "Belady replay diverged from the announced sequence");
  current_next_[id] = next_use_[cursor_];
  heap_.emplace(next_use_[cursor_], id);
  ++cursor_;
}

void Belady::on_hit(Key key) { advance(key); }

void Belady::on_fault(Key key, std::vector<Key>& evicted) {
  if (cache_full()) {
    // Pop the farthest next use; a key never requested again carries
    // kNever, so it leaves first.  A record is current iff it holds its
    // key's latest next use.  Each position is the next use of at most
    // one earlier position, so once a key's current record is popped
    // (the key evicted) none matches until the key is requested again.
    while (true) {
      RDCN_ASSERT_MSG(!heap_.empty(), "Belady heap exhausted");
      const auto [nxt, id] = heap_.top();
      heap_.pop();
      if (current_next_[id] == nxt) {
        evict_from_cache(keys_[id], evicted);
        break;
      }
    }
  }
  advance(key);
}

std::uint64_t Belady::optimal_faults(std::size_t capacity,
                                     const std::vector<Key>& sequence) {
  Belady b(capacity, sequence);
  std::vector<Key> evicted;
  for (Key k : sequence) {
    evicted.clear();
    b.request(k, evicted);
  }
  return b.faults();
}

}  // namespace rdcn::paging
