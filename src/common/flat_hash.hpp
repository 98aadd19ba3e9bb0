// rdcn: open-addressing hash containers keyed by 64-bit integers.
//
// The matching algorithms keep one record per *node pair* that has ever
// been requested; on multi-hundred-thousand-request traces this map is the
// hottest data structure in the simulator.  std::unordered_map's
// node-per-entry layout is cache-hostile, so we provide a flat,
// linear-probing map with tombstone-free backward-shift deletion.
//
// Tagged layout (TurboHash-style cell/tag probing): occupancy and a 7-bit
// hash fingerprint live in a *separate* contiguous 1-byte tag array, so a
// probe sequence walks densely packed tags (64 per cache line) and touches
// the wide {key, value} slot array only when a tag matches.  With 7
// fingerprint bits a tag hit is a true key match ~127/128 of the time, so
// a lookup typically costs one tag-line read plus one slot read.
//
// Tag invariants:
//   * tags_[i] == kEmptyTag (0)  ⇔  slot i is unoccupied; the key/value in
//     an unoccupied slot are unspecified and must never be read;
//   * occupied tags have the high bit set (0x80 | top 7 bits of the mixed
//     hash), so they can never collide with kEmptyTag;
//   * backward-shift deletion moves tags in lockstep with slots, so there
//     are no tombstones and the two arrays always agree.
// Occupancy lives only in the tags, so every 64-bit value is a valid key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rdcn {

namespace detail {

/// Finalizer from MurmurHash3: good avalanche for integer keys.
inline std::uint64_t mix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace detail

/// Flat hash map from std::uint64_t to V with tagged linear probing.
///
/// Deletion uses backward shifting, so lookup never scans tombstones and
/// the table stays dense under churn (matching edges are added and removed
/// constantly).  Iteration order is unspecified.
template <typename V>
class FlatMap {
 public:
  FlatMap() { rehash(16); }
  explicit FlatMap(std::size_t capacity_hint) {
    std::size_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    rehash(cap);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() {
    std::fill(tags_.begin(), tags_.end(), kEmptyTag);
    size_ = 0;
  }

  /// Single-probe upsert: returns {pointer to value, inserted?}; the value
  /// is default-constructed when newly inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    maybe_grow();
    const std::uint64_t h = detail::mix64(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & mask_;
    while (true) {
      const std::uint8_t t = tags_[i];
      if (t == tag && slots_[i].key == key) return {&slots_[i].value, false};
      if (t == kEmptyTag) {
        tags_[i] = tag;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return {&slots_[i].value, true};
      }
      i = next(i);
    }
  }

  /// Returns the value for `key`, default-constructing it if absent.
  V& operator[](std::uint64_t key) { return *try_emplace(key).first; }

  /// Returns nullptr if absent.
  V* find(std::uint64_t key) noexcept {
    const std::uint64_t h = detail::mix64(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & mask_;
    while (true) {
      const std::uint8_t t = tags_[i];
      if (t == tag && slots_[i].key == key) return &slots_[i].value;
      if (t == kEmptyTag) return nullptr;
      i = next(i);
    }
  }
  const V* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// Removes `key` if present; returns whether it was present.
  bool erase(std::uint64_t key) noexcept {
    const std::uint64_t h = detail::mix64(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & mask_;
    while (true) {
      const std::uint8_t t = tags_[i];
      if (t == tag && slots_[i].key == key) break;
      if (t == kEmptyTag) return false;
      i = next(i);
    }
    // Backward-shift deletion: pull subsequent displaced entries back.
    std::size_t hole = i;
    std::size_t j = next(i);
    while (tags_[j] != kEmptyTag) {
      const std::size_t home = probe_start(slots_[j].key);
      // Can slot j legally move into the hole? Yes iff the hole lies in the
      // cyclic probe interval [home, j).
      const bool movable = (hole <= j)
                               ? (home <= hole || home > j)
                               : (home <= hole && home > j);
      if (movable) {
        slots_[hole] = std::move(slots_[j]);
        tags_[hole] = tags_[j];
        hole = j;
      }
      j = next(j);
    }
    tags_[hole] = kEmptyTag;
    --size_;
    return true;
  }

  /// Calls f(key, value&) for every entry.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < tags_.size(); ++i)
      if (tags_[i] != kEmptyTag) f(slots_[i].key, slots_[i].value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < tags_.size(); ++i)
      if (tags_[i] != kEmptyTag) f(slots_[i].key, slots_[i].value);
  }

  void reserve(std::size_t n) {
    std::size_t cap = capacity();
    while (cap < n * 2) cap <<= 1;
    if (cap != capacity()) rehash(cap);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Hints the cache that a lookup for `key` is imminent: touches the tag
  /// line and home slot a probe for `key` starts at.  Purely advisory (no
  /// semantic effect); used by batch serve loops that know the next
  /// request while processing the current one.
  void prefetch(std::uint64_t key) const noexcept {
    const std::uint64_t h = detail::mix64(key);
    __builtin_prefetch(tags_.data() + (h & mask_));
    __builtin_prefetch(slots_.data() + (h & mask_));
  }

 private:
  static constexpr std::uint8_t kEmptyTag = 0;

  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };

  /// 0x80 | top 7 bits of the mixed hash — never kEmptyTag.  The probe
  /// index uses the *low* bits of the same hash, so tag and index are
  /// nearly independent.
  static std::uint8_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(0x80u | (h >> 57));
  }

  std::size_t probe_start(std::uint64_t key) const noexcept {
    return detail::mix64(key) & mask_;
  }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask_; }

  void maybe_grow() {
    if (size_ * 4 >= capacity() * 3) rehash(capacity() * 2);  // 0.75 load
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint8_t> old_tags = std::move(tags_);
    std::vector<Slot> old_slots = std::move(slots_);
    tags_.assign(new_cap, kEmptyTag);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (std::size_t s = 0; s < old_tags.size(); ++s) {
      if (old_tags[s] == kEmptyTag) continue;
      const std::uint64_t h = detail::mix64(old_slots[s].key);
      std::size_t i = h & mask_;
      while (tags_[i] != kEmptyTag) i = next(i);
      tags_[i] = old_tags[s];
      slots_[i] = std::move(old_slots[s]);
    }
  }

  std::vector<std::uint8_t> tags_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Flat hash set of std::uint64_t built on FlatMap.
class FlatSet {
 public:
  FlatSet() = default;
  explicit FlatSet(std::size_t capacity_hint) : map_(capacity_hint) {}

  std::size_t size() const noexcept { return map_.size(); }
  bool empty() const noexcept { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// Returns true if newly inserted (single probe — no pre-check).
  bool insert(std::uint64_t key) { return map_.try_emplace(key).second; }
  bool contains(std::uint64_t key) const noexcept {
    return map_.contains(key);
  }
  bool erase(std::uint64_t key) noexcept { return map_.erase(key); }

  template <typename F>
  void for_each(F&& f) const {
    map_.for_each([&](std::uint64_t k, const Unit&) { f(k); });
  }

 private:
  struct Unit {};
  FlatMap<Unit> map_;
};

}  // namespace rdcn
