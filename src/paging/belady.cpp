#include "paging/belady.hpp"

namespace rdcn::paging {

Belady::Belady(std::size_t capacity, std::vector<Key> sequence)
    : PagingAlgorithm(capacity), seq_(std::move(sequence)) {
  // Backward scan to compute each position's next occurrence.
  next_use_.assign(seq_.size(), kNever);
  FlatMap<std::size_t> last_seen;
  for (std::size_t i = seq_.size(); i-- > 0;) {
    const std::size_t* nxt = last_seen.find(seq_[i]);
    next_use_[i] = (nxt != nullptr) ? *nxt : kNever;
    last_seen[seq_[i]] = i;
  }
}

void Belady::advance(Key key) {
  RDCN_ASSERT_MSG(cursor_ < seq_.size(),
                  "Belady driven past its announced sequence");
  RDCN_ASSERT_MSG(seq_[cursor_] == key,
                  "Belady replay diverged from the announced sequence");
  const std::size_t nxt = next_use_[cursor_];
  ++cursor_;
  current_next_[key] = nxt;
  if (nxt != kNever) heap_.emplace(nxt, key);
}

void Belady::on_hit(Key key) { advance(key); }

void Belady::on_fault(Key key, std::vector<Key>& evicted) {
  if (cache_full()) {
    // Prefer a cached key that is never used again; otherwise pop the
    // farthest-next-use entry, skipping stale heap records.
    Key victim = 0;
    bool found_dead = false;
    current_next_.for_each([&](Key k, std::size_t nxt) {
      if (!found_dead && nxt == kNever) {
        victim = k;
        found_dead = true;
      }
    });
    if (!found_dead) {
      while (true) {
        RDCN_ASSERT_MSG(!heap_.empty(), "Belady heap exhausted");
        const auto [nxt, k] = heap_.top();
        heap_.pop();
        const std::size_t* cur = current_next_.find(k);
        if (cur != nullptr && *cur == nxt) {
          victim = k;
          break;
        }
        // else: stale entry (key evicted or next-use advanced) — skip.
      }
    }
    current_next_.erase(victim);
    evict_from_cache(victim, evicted);
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
