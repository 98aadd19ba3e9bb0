#include "common/param_map.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/small_vector.hpp"

#if !defined(__cpp_lib_to_chars)
#include <locale>
#include <sstream>
#endif

namespace rdcn {

namespace detail {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t'))
    --end;
  return text.substr(begin, end - begin);
}

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

}  // namespace detail

namespace {

using detail::split;
using detail::trim;

[[noreturn]] void conversion_error(std::string_view key,
                                   std::string_view value, const char* type) {
  throw SpecError("parameter '" + std::string(key) + "': cannot parse '" +
                  std::string(value) + "' as " + type);
}

}  // namespace

std::uint64_t ParamMap::parse_uint(std::string_view key,
                                   std::string_view value) {
  std::uint64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end)
    conversion_error(key, value, "an unsigned integer");
  return out;
}

std::int64_t ParamMap::parse_int(std::string_view key,
                                 std::string_view value) {
  std::int64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end)
    conversion_error(key, value, "an integer");
  return out;
}

double ParamMap::parse_double(std::string_view key,
                              std::string_view value) {
  // std::strtod honors the global C locale — a host running under de_DE
  // rejects "0.5" — and accepts forms the from_chars-parsed integers don't
  // mirror (hex floats, "inf", "nan").  Parse locale-free instead:
  // decimal/scientific forms only, full consumption, finite results.
  if (value.empty()) conversion_error(key, value, "a number");
  double out = 0.0;
  const char* begin = value.data();
  const char* end = begin + value.size();
#if defined(__cpp_lib_to_chars)
  const auto [ptr, ec] =
      std::from_chars(begin, end, out, std::chars_format::general);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out))
    conversion_error(key, value, "a finite number");
#else
  // Fallback for standard libraries without floating-point from_chars:
  // restrict the alphabet to the decimal forms from_chars would accept
  // (this rejects hex floats, inf, nan, and locale decimal commas), then
  // parse with a stream pinned to the classic "C" locale.
  if (value.find_first_not_of("0123456789.eE+-") != std::string_view::npos ||
      value[0] == '+' || value == "-")
    conversion_error(key, value, "a finite number");
  std::istringstream in{std::string(value)};
  in.imbue(std::locale::classic());
  in >> out;
  if (in.fail() || !in.eof() || !std::isfinite(out))
    conversion_error(key, value, "a finite number");
#endif
  return out;
}

bool ParamMap::parse_bool(std::string_view key, std::string_view value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on")
    return true;
  if (value == "false" || value == "0" || value == "no" || value == "off")
    return false;
  conversion_error(key, value, "a boolean (true/false/1/0/yes/no/on/off)");
}

ParamMap ParamMap::parse(std::string_view text) {
  ParamMap out;
  if (trim(text).empty()) return out;
  out.entries_.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')) + 1);
  split(text, ',', [&](std::string_view raw) {
    const std::string_view item = trim(raw);
    if (item.empty())
      throw SpecError("empty parameter in spec '" + std::string(text) + "'");
    const std::size_t eq = item.find('=');
    const std::string_view key =
        eq == std::string_view::npos ? item : trim(item.substr(0, eq));
    const std::string_view value =
        eq == std::string_view::npos ? "true" : trim(item.substr(eq + 1));
    if (key.empty())
      throw SpecError("parameter with empty key in spec '" +
                      std::string(text) + "'");
    if (out.contains(key))
      throw SpecError("duplicate parameter '" + std::string(key) +
                      "' in spec '" + std::string(text) + "'");
    out.entries_.push_back({std::string(key), std::string(value), false});
  });
  return out;
}

ParamMap ParamMap::from_args(int argc, const char* const* argv) {
  ParamMap out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || arg.size() == 2 || eq == 2)
      throw SpecError("unexpected argument '" + arg +
                      "'; flags take the form --key=value");
    const std::string key = arg.substr(2, eq - 2);  // npos: to the end
    if (eq != std::string::npos)
      out.set(key, arg.substr(eq + 1));
    else if (i + 1 < argc && argv[i + 1][0] != '-')
      out.set(key, argv[++i]);
    else
      out.set(key, "true");
  }
  return out;
}

std::string ParamMap::to_string() const {
  std::string out;
  append_to(out, /*canonical=*/false);
  return out;
}

std::string ParamMap::canonical_string() const {
  std::string out;
  append_to(out, /*canonical=*/true);
  return out;
}

void ParamMap::append_to(std::string& out, bool canonical) const {
  // Component specs carry a handful of params: sorting pointers in inline
  // storage allocates nothing.
  SmallVector<const Entry*, 8> order;
  for (const Entry& e : entries_) order.push_back(&e);
  if (canonical)
    std::sort(order.begin(), order.end(),
              [](const Entry* a, const Entry* b) { return a->key < b->key; });
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += ',';
    out += order[i]->key;
    if (order[i]->value != "true") {
      out += '=';
      out += order[i]->value;
    }
  }
}

void ParamMap::set(std::string_view key, std::string_view value) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.value = value;
      return;
    }
  }
  entries_.push_back({std::string(key), std::string(value), false});
}

bool ParamMap::contains(std::string_view key) const noexcept {
  // Deliberately NOT routed through find(): contains() is a pure probe and
  // must not mark the entry consumed, or a key checked only via contains()
  // would silently escape require_all_consumed's unknown-key detection.
  for (const Entry& e : entries_)
    if (e.key == key) return true;
  return false;
}

const std::string* ParamMap::find(std::string_view key) const noexcept {
  for (const Entry& e : entries_) {
    if (e.key == key) {
      e.consumed = true;
      return &e.value;
    }
  }
  return nullptr;
}

std::vector<std::string> ParamMap::unconsumed_keys() const {
  std::vector<std::string> out;
  for (const Entry& e : entries_)
    if (!e.consumed) out.push_back(e.key);
  return out;
}

void ParamMap::require_all_consumed(std::string_view context) const {
  const std::vector<std::string> unknown = unconsumed_keys();
  if (unknown.empty()) return;
  std::string msg = std::string(context) + ": unknown parameter";
  if (unknown.size() > 1) msg += 's';
  for (std::size_t i = 0; i < unknown.size(); ++i)
    msg += (i == 0 ? " '" : ", '") + unknown[i] + "'";
  throw SpecError(msg);
}

Spec Spec::parse(std::string_view text) {
  const std::string_view trimmed = trim(text);
  const std::size_t colon = trimmed.find(':');
  Spec out;
  out.name = trim(trimmed.substr(0, colon));
  if (out.name.empty())
    throw SpecError("spec '" + std::string(text) + "' has no name");
  if (colon != std::string_view::npos)
    out.params = ParamMap::parse(trimmed.substr(colon + 1));
  return out;
}

std::string Spec::to_string() const {
  std::string out;
  append_to(out, /*canonical=*/false);
  return out;
}

std::string Spec::canonical_string() const {
  std::string out;
  append_to(out, /*canonical=*/true);
  return out;
}

void Spec::append_to(std::string& out, bool canonical) const {
  out += name;
  if (params.empty()) return;
  out += ':';
  params.append_to(out, canonical);
}

}  // namespace rdcn
