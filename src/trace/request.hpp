// rdcn: a communication request — an unordered rack pair {s, t}, the unit
// of demand in the paper's model (§1.1: "a request could either be an
// individual packet or a certain amount of bytes transferred").
#pragma once

#include <cstdint>

#include "common/assert.hpp"

namespace rdcn::trace {

using Rack = std::uint32_t;

struct Request {
  Rack u;
  Rack v;

  /// Normalized constructor: stores min(u,v), max(u,v).
  static Request make(Rack a, Rack b) {
    RDCN_DCHECK(a != b);
    return a < b ? Request{a, b} : Request{b, a};
  }

  friend bool operator==(const Request&, const Request&) = default;
};

/// Canonical 64-bit id of an unordered pair: (min << 32) | max.
inline std::uint64_t pair_key(Rack a, Rack b) noexcept {
  RDCN_DCHECK(a != b);
  const Rack lo = a < b ? a : b;
  const Rack hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

inline std::uint64_t pair_key(const Request& r) noexcept {
  return pair_key(r.u, r.v);
}

inline Rack pair_lo(std::uint64_t key) noexcept {
  return static_cast<Rack>(key >> 32);
}
inline Rack pair_hi(std::uint64_t key) noexcept {
  return static_cast<Rack>(key & 0xFFFFFFFFu);
}

}  // namespace rdcn::trace
