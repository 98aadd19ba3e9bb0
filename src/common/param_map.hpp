// rdcn: typed parameter maps and compact spec strings.
//
// The scenario API (scenario/registry.hpp) describes every configurable
// component — algorithm, topology, workload — as a name plus a small
// key/value parameter set.  ParamMap is that parameter set: an ordered
// string→string map parsed from (and printed back to) the compact form
//
//     b=16,engine=lru,eager          (bare key ≡ key=true)
//
// and read through typed getters with defaults.  A Spec bundles the name
// with its parameters ("r_bma:engine=lru,eager").  Reads are tracked so a
// consumer can reject typo'd keys after construction (unknown-key
// detection); malformed values and missing required keys raise SpecError,
// which user-facing drivers catch and turn into friendly diagnostics.
// Parsers and lookups read std::string_view and copy only what a map
// keeps; printers append into the caller's string.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rdcn {

/// Raised on malformed spec strings, unknown names/keys, and values that
/// fail typed conversion.  Carries a human-readable message suitable for
/// direct CLI display.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& message)
      : std::runtime_error(message) {}
};

namespace detail {
/// Shared spec-string helpers (used by ParamMap, the scenario layer and
/// the protocol, so they cannot disagree on whitespace/list handling).
std::string_view trim(std::string_view text);

/// Appends `value` in decimal, as std::to_string prints it.
void append_number(std::string& out, std::uint64_t value);

/// Calls `visit(item)` for each `sep`-separated item of `text`, empty
/// ones included: "a,,b" visits "a", "", "b"; "" visits "" once.
template <typename Visit>
void split(std::string_view text, char sep, Visit&& visit) {
  while (true) {
    const std::size_t pos = text.find(sep);
    visit(text.substr(0, pos));
    if (pos == std::string_view::npos) return;
    text.remove_prefix(pos + 1);
  }
}
}  // namespace detail

class ParamMap {
 public:
  ParamMap() = default;

  /// Parses "k1=v1,k2,k3=v3" (bare key ≡ key=true).  Empty text yields an
  /// empty map.  Duplicate keys raise SpecError (within one compact spec a
  /// repeated key is a typo, not an override).
  static ParamMap parse(std::string_view text);

  /// Reads command-line flags (argv[1..]): "--k=v", "--k v" when the next
  /// token does not start with '-', and a bare "--k" ≡ k=true.  A repeated
  /// flag replaces the earlier value.  Any other token ("50000", "-x",
  /// "--", "--=3") raises SpecError.  Flags no getter reads stay in
  /// unconsumed_keys(), so a tool rejects unknown flags after reading its
  /// own.
  static ParamMap from_args(int argc, const char* const* argv);

  /// Inverse of parse(): "k1=v1,k2,k3=v3", insertion order preserved,
  /// values equal to "true" printed as bare keys.  parse(to_string())
  /// round-trips to an equivalent map.
  std::string to_string() const;

  /// Like to_string() but with entries sorted by key — the *canonical*
  /// form: two maps equal up to insertion order print identically, so
  /// equivalent specs hash/compare equal.  Cache keys and dedup logic use
  /// this; to_string() stays faithful to the user's input order.
  std::string canonical_string() const;

  /// Appends to_string(), or with `canonical` canonical_string(), to `out`.
  void append_to(std::string& out, bool canonical) const;

  /// Programmatic insertion (overwrites an existing key in place).
  void set(std::string_view key, std::string_view value);

  /// Pure membership probe.  Does NOT mark the entry consumed: a key only
  /// ever probed via contains() still shows up in unconsumed_keys().
  bool contains(std::string_view key) const noexcept;
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Calls `visit(key)` for every key in insertion order.  Like
  /// contains(), it marks nothing consumed.
  template <typename Visit>
  void for_each_key(Visit&& visit) const {
    for (const Entry& e : entries_) visit(e.key);
  }

  /// Typed getters.  The one-argument form is *required*: a missing key
  /// raises SpecError.  The two-argument form returns `fallback` when the
  /// key is absent.  Supported T: std::string, bool, any arithmetic type
  /// (size_t, uint64_t, int, double, ...).  Conversion failures (trailing
  /// garbage, overflow, negative where unsigned) raise SpecError.
  template <typename T>
  T get(std::string_view key) const {
    const std::string* v = find(key);
    if (v == nullptr)
      throw SpecError("missing required parameter '" + std::string(key) +
                      "'");
    return convert<T>(key, *v);
  }

  template <typename T>
  T get(std::string_view key, T fallback) const {
    const std::string* v = find(key);
    return v == nullptr ? fallback : convert<T>(key, *v);
  }

  /// get<T>'s conversion of a value read some other way (a scenario field,
  /// one item of a list); failures raise the same SpecError.
  template <typename T>
  static T convert(std::string_view key, std::string_view value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return std::string(value);
    } else if constexpr (std::is_same_v<T, bool>) {
      return parse_bool(key, value);
    } else if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(parse_double(key, value));
    } else if constexpr (std::is_unsigned_v<T>) {
      return narrow<T>(key, value, parse_uint(key, value));
    } else {
      static_assert(std::is_signed_v<T> && std::is_integral_v<T>,
                    "unsupported ParamMap::get<T>");
      return narrow<T>(key, value, parse_int(key, value));
    }
  }

  /// The value under `key`, marked consumed; nullptr when absent.
  const std::string* find(std::string_view key) const noexcept;

  /// Keys never read by any getter — i.e. keys the consumer does not
  /// understand (contains() probes don't count as reads).  Registries call
  /// this after building a component to reject typos (see
  /// require_all_consumed).
  std::vector<std::string> unconsumed_keys() const;

  /// Raises SpecError naming every unconsumed key; `context` names the
  /// component being built ("algorithm 'r_bma'").
  void require_all_consumed(std::string_view context) const;

  /// Forgets which keys have been read (copies inherit consumption marks;
  /// registries reset their private copy before building).
  void reset_consumption() const noexcept {
    for (const Entry& e : entries_) e.consumed = false;
  }

  friend bool operator==(const ParamMap& a, const ParamMap& b) {
    if (a.entries_.size() != b.entries_.size()) return false;
    for (std::size_t i = 0; i < a.entries_.size(); ++i) {
      if (a.entries_[i].key != b.entries_[i].key ||
          a.entries_[i].value != b.entries_[i].value)
        return false;
    }
    return true;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool consumed = false;
  };

  static bool parse_bool(std::string_view key, std::string_view value);
  static double parse_double(std::string_view key, std::string_view value);
  static std::uint64_t parse_uint(std::string_view key,
                                  std::string_view value);
  static std::int64_t parse_int(std::string_view key, std::string_view value);

  template <typename T, typename Wide>
  static T narrow(std::string_view key, std::string_view value, Wide wide) {
    const T narrowed = static_cast<T>(wide);
    if (static_cast<Wide>(narrowed) != wide)
      throw SpecError("parameter '" + std::string(key) + "': value '" +
                      std::string(value) + "' out of range");
    return narrowed;
  }

  std::vector<Entry> entries_;
};

/// A named, parameterized component: "name" or "name:k=v,k2,...".
struct Spec {
  std::string name;
  ParamMap params;

  static Spec parse(std::string_view text);
  std::string to_string() const;

  /// to_string() with params in canonical (sorted) order; see
  /// ParamMap::canonical_string.
  std::string canonical_string() const;

  /// Appends to_string(), or with `canonical` canonical_string(), to `out`.
  void append_to(std::string& out, bool canonical) const;

  friend bool operator==(const Spec& a, const Spec& b) {
    return a.name == b.name && a.params == b.params;
  }
};

}  // namespace rdcn
