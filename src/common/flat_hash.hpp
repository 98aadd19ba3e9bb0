// rdcn: the open-addressing hash set behind paging membership.
//
// Every other pair-keyed map or set in the library is indexed densely by
// trace::pair_slot, diffed by schedule round, or sorted.  This set stays a
// hash for one reason: its slot order is behaviour.  Marking starts a
// phase by listing the cache in slot order and FlushWhenFull evicts in
// it, so the r_bma golden ledger anchors pin the hash, the tag byte, the
// probe sequence, the 16-slot start, the 0.75 growth and the
// backward-shift deletion below.  Changing any of them moves those
// anchors even though R-BMA's cost distribution stays the same.  Moving
// membership into each engine's own rows, so that a phase restart lists
// keys in insertion order, is the change that retires this file.
//
// Tagged layout (TurboHash-style cell/tag probing): occupancy and a 7-bit
// hash fingerprint live in a *separate* contiguous 1-byte tag array, so a
// probe sequence walks densely packed tags (64 per cache line) and touches
// the key array only when a tag matches.
//
// Tag invariants:
//   * tags_[i] == kEmptyTag (0)  ⇔  slot i is unoccupied; the key in an
//     unoccupied slot is unspecified and must never be read;
//   * occupied tags have the high bit set (0x80 | top 7 bits of the mixed
//     hash), so they can never collide with kEmptyTag;
//   * backward-shift deletion moves tags in lockstep with keys, so there
//     are no tombstones and the two arrays always agree.
// Occupancy lives only in the tags, so every 64-bit value is a valid key.
#pragma once

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

/// Flat hash set of std::uint64_t with tagged linear probing.  A new set
/// has 16 slots and doubles when an insert finds it 3/4 full.  Deletion
/// shifts displaced keys back, so lookups never scan tombstones.
class FlatSet {
 public:
  FlatSet() { rehash(16); }

  std::size_t size() const noexcept { return size_; }

  /// Returns true if newly inserted (single probe — no pre-check).
  bool insert(std::uint64_t key) {
    maybe_grow();
    const std::uint64_t h = detail::mix64(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & mask_;
    while (true) {
      const std::uint8_t t = tags_[i];
      if (t == tag && keys_[i] == key) return false;
      if (t == kEmptyTag) {
        tags_[i] = tag;
        keys_[i] = key;
        ++size_;
        return true;
      }
      i = next(i);
    }
  }

  bool contains(std::uint64_t key) const noexcept {
    return find(key) != kAbsent;
  }

  /// Removes `key` if present; returns whether it was present.
  bool erase(std::uint64_t key) noexcept {
    const std::size_t i = find(key);
    if (i == kAbsent) return false;
    // Backward-shift deletion: pull subsequent displaced keys back.
    std::size_t hole = i;
    std::size_t j = next(i);
    while (tags_[j] != kEmptyTag) {
      const std::size_t home = detail::mix64(keys_[j]) & mask_;
      // Can slot j legally move into the hole? Yes iff the hole lies in the
      // cyclic probe interval [home, j).
      const bool movable = (hole <= j)
                               ? (home <= hole || home > j)
                               : (home <= hole && home > j);
      if (movable) {
        keys_[hole] = keys_[j];
        tags_[hole] = tags_[j];
        hole = j;
      }
      j = next(j);
    }
    tags_[hole] = kEmptyTag;
    --size_;
    return true;
  }

  /// Calls f(key) for every key, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < tags_.size(); ++i)
      if (tags_[i] != kEmptyTag) f(keys_[i]);
  }

 private:
  static constexpr std::uint8_t kEmptyTag = 0;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// 0x80 | top 7 bits of the mixed hash — never kEmptyTag.  The probe
  /// index uses the *low* bits of the same hash, so tag and index are
  /// nearly independent.
  static std::uint8_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(0x80u | (h >> 57));
  }

  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask_; }

  /// The slot holding `key`, or kAbsent.
  std::size_t find(std::uint64_t key) const noexcept {
    const std::uint64_t h = detail::mix64(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & mask_;
    while (true) {
      const std::uint8_t t = tags_[i];
      if (t == tag && keys_[i] == key) return i;
      if (t == kEmptyTag) return kAbsent;
      i = next(i);
    }
  }

  void maybe_grow() {
    if (size_ * 4 >= tags_.size() * 3) rehash(tags_.size() * 2);  // 0.75 load
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint8_t> old_tags = std::move(tags_);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    tags_.assign(new_cap, kEmptyTag);
    keys_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (std::size_t s = 0; s < old_tags.size(); ++s) {
      if (old_tags[s] == kEmptyTag) continue;
      std::size_t i = detail::mix64(old_keys[s]) & mask_;
      while (tags_[i] != kEmptyTag) i = next(i);
      tags_[i] = old_tags[s];
      keys_[i] = old_keys[s];
    }
  }

  std::vector<std::uint8_t> tags_;
  std::vector<std::uint64_t> keys_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rdcn
