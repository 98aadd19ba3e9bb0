#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace rdcn::bench {

namespace {

/// JSON string literal with the escapes JSON requires.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Nearest-rank percentile of already sorted values.
double ranked(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

std::vector<double> sorted_copy(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

Summary summarize_sorted(const std::vector<double>& sorted) {
  return {sorted.size(), ranked(sorted, 25), ranked(sorted, 50),
          ranked(sorted, 75)};
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  return ranked(sorted_copy(std::move(values)), p);
}

void Report::median(const std::string& name, const std::string& unit,
                    const std::vector<double>& values, std::string basis) {
  percentile(name, unit, values, 50, std::move(basis));
}

void Report::percentile(const std::string& name, const std::string& unit,
                        const std::vector<double>& values, double p,
                        std::string basis) {
  const std::vector<double> sorted = sorted_copy(values);
  metrics_[name] = {ranked(sorted, p), unit, summarize_sorted(sorted),
                    std::move(basis)};
}

void Report::value(const std::string& name, const std::string& unit, double v,
                   std::string basis) {
  metrics_[name] = {v, unit, {1, v, v, v}, std::move(basis)};
}

std::string Report::listing() const {
  std::ostringstream out;
  const auto number = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  for (const auto& [name, m] : metrics_) {
    out << name << " = " << number(m.value) << " " << m.unit;
    if (m.samples.n > 1)
      out << " (p25 " << number(m.samples.p25) << ", p75 "
          << number(m.samples.p75) << ", n=" << m.samples.n << ")";
    if (!m.basis.empty()) out << " [" << m.basis << "]";
    out << "\n";
  }
  return out.str();
}

std::string Report::detail_json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"env\": {";
  bool first = true;
  for (const auto& [key, v] : env_) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(v);
    first = false;
  }
  out << "}, \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "\n  " : ",\n  ") << json_string(name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << ", \"n\": " << m.samples.n
        << ", \"p25\": " << json_number(m.samples.p25)
        << ", \"p50\": " << json_number(m.samples.p50)
        << ", \"p75\": " << json_number(m.samples.p75)
        << ", \"basis\": " << json_string(m.basis) << "}";
    first = false;
  }
  out << "\n}}\n";
  return out.str();
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed,
                                const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    out << (first ? "" : ", ") << json_string(name)
        << ": {\"value\": " << json_number(it->second.value)
        << ", \"unit\": " << json_string(it->second.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace rdcn::bench
