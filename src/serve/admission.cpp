#include "serve/admission.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/param_map.hpp"

namespace rdcn::serve {

bool is_valid_client_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void TokenBucket::refill(std::uint64_t now_ns) {
  if (last_ns_ == 0) {
    last_ns_ = now_ns;  // first sighting: the bucket starts full
    return;
  }
  if (now_ns <= last_ns_) return;
  tokens_ = std::min(
      burst_, tokens_ + static_cast<double>(now_ns - last_ns_) * 1e-9 * rate_);
  last_ns_ = now_ns;
}

bool TokenBucket::try_take(std::uint64_t now_ns, std::uint32_t* retry_ms) {
  if (unlimited()) return true;
  refill(now_ns);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  if (retry_ms != nullptr) {
    const double wait_s = (1.0 - tokens_) / rate_;
    const double ms = std::ceil(wait_s * 1000.0);
    *retry_ms = static_cast<std::uint32_t>(
        std::min(60'000.0, std::max(1.0, ms)));
  }
  return false;
}

double TokenBucket::tokens_at(std::uint64_t now_ns) {
  refill(now_ns);
  return tokens_;
}

QuotaTable QuotaTable::parse_text(const std::string& text,
                                  const QuotaSpec& defaults) {
  QuotaTable out(defaults);
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string client;
    if (!(fields >> client) || client.front() == '#') continue;
    if (client != "default" && client != "*" &&
        !is_valid_client_name(client))
      throw SpecError("quota file line " + std::to_string(line_no) +
                      ": invalid client name '" + client +
                      "' (1-64 chars from [A-Za-z0-9._-], or 'default')");
    // The row's "k=v" attributes read through ParamMap, like every
    // typed-in value; a bare token reads as k="", which no key accepts.
    ParamMap attrs;
    std::string token;
    while (fields >> token) {
      const std::size_t eq = token.find('=');
      attrs.set(token.substr(0, eq),
                eq == std::string::npos ? "" : token.substr(eq + 1));
    }
    QuotaSpec quota = defaults;
    try {
      quota.rps = attrs.get("rps", quota.rps);
      quota.burst = attrs.get("burst", quota.burst);
      quota.concurrent = attrs.get("concurrent", quota.concurrent);
      attrs.require_all_consumed("client '" + client +
                                 "' (known: rps, burst, concurrent)");
      if (quota.rps < 0 || quota.burst < 0)
        throw SpecError("negative rps or burst for client '" + client +
                        "'");
    } catch (const SpecError& e) {
      throw SpecError("quota file line " + std::to_string(line_no) + ": " +
                      e.what());
    }
    if (client == "default" || client == "*")
      out.default_ = quota;
    else
      out.set_override(client, quota);
  }
  return out;
}

QuotaTable QuotaTable::parse_file(const std::string& path,
                                  const QuotaSpec& defaults) {
  std::ifstream in(path);
  if (!in) throw SpecError("cannot read quota file '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse_text(text, defaults);
}

int Brownout::update(std::size_t queued, std::uint64_t rss_bytes) {
  const double q =
      queue_limit_ == 0
          ? 0.0
          : static_cast<double>(queued) / static_cast<double>(queue_limit_);
  const double r =
      (max_rss_ == 0 || rss_bytes == 0)
          ? 0.0
          : static_cast<double>(rss_bytes) / static_cast<double>(max_rss_);
  switch (level_) {
    case 0:
      if (q >= 0.875 || r >= 0.95)
        level_ = 2;
      else if (q >= 0.5 || r >= 0.80)
        level_ = 1;
      break;
    case 1:
      if (q >= 0.875 || r >= 0.95)
        level_ = 2;
      else if (q < 0.25 && r < 0.70)
        level_ = 0;
      break;
    default:  // 2
      if (q < 0.5 && r < 0.85) level_ = 1;
      break;
  }
  return level_;
}

std::uint32_t DrainEstimator::retry_ms(std::size_t queued,
                                       std::size_t executors,
                                       std::uint32_t fallback_ms) const {
  if (ewma_ns_ == 0) return fallback_ms;
  const double slots = executors == 0 ? 1.0 : static_cast<double>(executors);
  const double ms = static_cast<double>(ewma_ns_) / 1e6 *
                    (static_cast<double>(queued) + 1.0) / slots;
  return static_cast<std::uint32_t>(std::min(60'000.0, std::max(1.0, ms)));
}

std::uint64_t read_rss_bytes() {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmRSS:") != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    if (fields >> kb) return kb * 1024;
    return 0;
  }
#endif
  return 0;
}

}  // namespace rdcn::serve
