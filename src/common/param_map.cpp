#include "common/param_map.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#if !defined(__cpp_lib_to_chars)
#include <locale>
#include <sstream>
#endif

namespace rdcn {

namespace detail {

std::string trim(const std::string& s) {
  std::size_t begin = 0, end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

}  // namespace detail

namespace {

using detail::split;
using detail::trim;

[[noreturn]] void conversion_error(const std::string& key,
                                   const std::string& value,
                                   const char* type) {
  throw SpecError("parameter '" + key + "': cannot parse '" + value +
                  "' as " + type);
}

}  // namespace

std::uint64_t ParamMap::parse_uint(const std::string& key,
                                   const std::string& value) {
  std::uint64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end)
    conversion_error(key, value, "an unsigned integer");
  return out;
}

std::int64_t ParamMap::parse_int(const std::string& key,
                                 const std::string& value) {
  std::int64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end)
    conversion_error(key, value, "an integer");
  return out;
}

double ParamMap::parse_double(const std::string& key,
                              const std::string& value) {
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
  if (value.find_first_not_of("0123456789.eE+-") != std::string::npos ||
      value[0] == '+' || value == "-")
    conversion_error(key, value, "a finite number");
  std::istringstream in(value);
  in.imbue(std::locale::classic());
  in >> out;
  if (in.fail() || !in.eof() || !std::isfinite(out))
    conversion_error(key, value, "a finite number");
#endif
  return out;
}

bool ParamMap::parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on")
    return true;
  if (value == "false" || value == "0" || value == "no" || value == "off")
    return false;
  conversion_error(key, value, "a boolean (true/false/1/0/yes/no/on/off)");
}

ParamMap ParamMap::parse(const std::string& text) {
  ParamMap out;
  if (trim(text).empty()) return out;
  for (const std::string& raw : split(text, ',')) {
    const std::string item = trim(raw);
    if (item.empty())
      throw SpecError("empty parameter in spec '" + text + "'");
    const std::size_t eq = item.find('=');
    std::string key = eq == std::string::npos ? item : trim(item.substr(0, eq));
    std::string value =
        eq == std::string::npos ? "true" : trim(item.substr(eq + 1));
    if (key.empty())
      throw SpecError("parameter with empty key in spec '" + text + "'");
    if (out.contains(key))
      throw SpecError("duplicate parameter '" + key + "' in spec '" + text +
                      "'");
    out.entries_.push_back({std::move(key), std::move(value), false});
  }
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

namespace {

void append_entry(std::string& out, const std::string& key,
                  const std::string& value) {
  if (!out.empty()) out += ',';
  out += key;
  if (value != "true") {
    out += '=';
    out += value;
  }
}

}  // namespace

std::string ParamMap::to_string() const {
  std::string out;
  for (const Entry& e : entries_) append_entry(out, e.key, e.value);
  return out;
}

std::string ParamMap::canonical_string() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  std::string out;
  for (const Entry* e : sorted) append_entry(out, e->key, e->value);
  return out;
}

void ParamMap::set(const std::string& key, const std::string& value) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.value = value;
      return;
    }
  }
  entries_.push_back({key, value, false});
}

bool ParamMap::contains(const std::string& key) const noexcept {
  // Deliberately NOT routed through find(): contains() is a pure probe and
  // must not mark the entry consumed, or a key checked only via contains()
  // would silently escape require_all_consumed's unknown-key detection.
  for (const Entry& e : entries_)
    if (e.key == key) return true;
  return false;
}

std::vector<std::string> ParamMap::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.key);
  return out;
}

const std::string* ParamMap::find(const std::string& key) const noexcept {
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

void ParamMap::require_all_consumed(const std::string& context) const {
  const std::vector<std::string> unknown = unconsumed_keys();
  if (unknown.empty()) return;
  std::string msg = context + ": unknown parameter";
  if (unknown.size() > 1) msg += 's';
  for (std::size_t i = 0; i < unknown.size(); ++i)
    msg += (i == 0 ? " '" : ", '") + unknown[i] + "'";
  throw SpecError(msg);
}

Spec Spec::parse(const std::string& text) {
  const std::string trimmed = trim(text);
  const std::size_t colon = trimmed.find(':');
  Spec out;
  out.name = trim(colon == std::string::npos ? trimmed
                                             : trimmed.substr(0, colon));
  if (out.name.empty()) throw SpecError("spec '" + text + "' has no name");
  if (colon != std::string::npos)
    out.params = ParamMap::parse(trimmed.substr(colon + 1));
  return out;
}

std::string Spec::to_string() const {
  const std::string p = params.to_string();
  return p.empty() ? name : name + ":" + p;
}

std::string Spec::canonical_string() const {
  const std::string p = params.canonical_string();
  return p.empty() ? name : name + ":" + p;
}

}  // namespace rdcn
