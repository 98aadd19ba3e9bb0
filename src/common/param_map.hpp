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
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
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
/// Shared spec-string helpers (used by ParamMap and the scenario layer, so
/// the two spec layers cannot disagree on whitespace/list handling).
std::string trim(const std::string& s);
std::vector<std::string> split(const std::string& text, char sep);
}  // namespace detail

class ParamMap {
 public:
  ParamMap() = default;

  /// Parses "k1=v1,k2,k3=v3" (bare key ≡ key=true).  Empty text yields an
  /// empty map.  Duplicate keys raise SpecError (within one compact spec a
  /// repeated key is a typo, not an override).
  static ParamMap parse(const std::string& text);

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

  /// Programmatic insertion (overwrites an existing key in place).
  void set(const std::string& key, const std::string& value);

  /// Pure membership probe.  Does NOT mark the entry consumed: a key only
  /// ever probed via contains() still shows up in unconsumed_keys().
  bool contains(const std::string& key) const noexcept;
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// All keys in insertion order.
  std::vector<std::string> keys() const;

  /// Typed getters.  The one-argument form is *required*: a missing key
  /// raises SpecError.  The two-argument form returns `fallback` when the
  /// key is absent.  Supported T: std::string, bool, any arithmetic type
  /// (size_t, uint64_t, int, double, ...).  Conversion failures (trailing
  /// garbage, overflow, negative where unsigned) raise SpecError.
  template <typename T>
  T get(const std::string& key) const {
    const std::string* v = find(key);
    if (v == nullptr)
      throw SpecError("missing required parameter '" + key + "'");
    if constexpr (std::is_same_v<T, std::string>) {
      return *v;
    } else if constexpr (std::is_same_v<T, bool>) {
      return parse_bool(key, *v);
    } else if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(parse_double(key, *v));
    } else if constexpr (std::is_unsigned_v<T>) {
      return narrow<T>(key, *v, parse_uint(key, *v));
    } else {
      static_assert(std::is_signed_v<T> && std::is_integral_v<T>,
                    "unsupported ParamMap::get<T>");
      return narrow<T>(key, *v, parse_int(key, *v));
    }
  }

  template <typename T>
  T get(const std::string& key, T fallback) const {
    return find(key) == nullptr ? fallback : get<T>(key);
  }

  /// Keys never read by any getter — i.e. keys the consumer does not
  /// understand (contains() probes don't count as reads).  Registries call
  /// this after building a component to reject typos (see
  /// require_all_consumed).
  std::vector<std::string> unconsumed_keys() const;

  /// Raises SpecError naming every unconsumed key; `context` names the
  /// component being built ("algorithm 'r_bma'").
  void require_all_consumed(const std::string& context) const;

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

  /// nullptr when absent; marks the entry consumed otherwise.
  const std::string* find(const std::string& key) const noexcept;

  static bool parse_bool(const std::string& key, const std::string& value);
  static double parse_double(const std::string& key, const std::string& value);
  static std::uint64_t parse_uint(const std::string& key,
                                  const std::string& value);
  static std::int64_t parse_int(const std::string& key,
                                const std::string& value);

  template <typename T, typename Wide>
  static T narrow(const std::string& key, const std::string& value,
                  Wide wide) {
    const T narrowed = static_cast<T>(wide);
    if (static_cast<Wide>(narrowed) != wide)
      throw SpecError("parameter '" + key + "': value '" + value +
                      "' out of range");
    return narrowed;
  }

  std::vector<Entry> entries_;
};

/// A named, parameterized component: "name" or "name:k=v,k2,...".
struct Spec {
  std::string name;
  ParamMap params;

  static Spec parse(const std::string& text);
  std::string to_string() const;

  /// to_string() with params in canonical (sorted) order; see
  /// ParamMap::canonical_string.
  std::string canonical_string() const;

  friend bool operator==(const Spec& a, const Spec& b) {
    return a.name == b.name && a.params == b.params;
  }
};

}  // namespace rdcn
