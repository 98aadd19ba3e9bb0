#include "trace/stats.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/flat_hash.hpp"

namespace rdcn::trace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> pair_counts_sorted(
    const Trace& trace) {
  // A trace holds at most C(racks, 2) distinct pairs, however long it is.
  const std::size_t racks = trace.num_racks();
  const std::size_t max_pairs = racks * (racks > 0 ? racks - 1 : 0) / 2;
  FlatMap<std::uint64_t> counts(std::min(trace.size(), max_pairs));
  for (const Request& r : trace) ++counts[pair_key(r)];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(counts.size());
  counts.for_each([&](std::uint64_t key, std::uint64_t cnt) {
    out.emplace_back(key, cnt);
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.num_requests = trace.size();
  s.num_racks = trace.num_racks();
  if (trace.empty()) return s;

  const auto counts = pair_counts_sorted(trace);
  s.distinct_pairs = counts.size();
  const double total = static_cast<double>(trace.size());

  // Entropy and top-k shares from the sorted histogram.
  double entropy = 0.0;
  for (const auto& [key, cnt] : counts) {
    const double p = static_cast<double>(cnt) / total;
    entropy -= p * std::log2(p);
  }
  s.normalized_pair_entropy =
      counts.size() > 1
          ? entropy / std::log2(static_cast<double>(counts.size()))
          : 0.0;

  auto share_of_top = [&](double fraction) {
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(fraction * static_cast<double>(counts.size()))));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < k && i < counts.size(); ++i)
      sum += counts[i].second;
    return static_cast<double>(sum) / total;
  };
  s.top1pct_share = share_of_top(0.01);
  s.top10pct_share = share_of_top(0.10);

  // Gini over the count distribution (counts sorted descending -> sort
  // ascending for the standard formula).
  {
    std::vector<double> c;
    c.reserve(counts.size());
    for (auto it = counts.rbegin(); it != counts.rend(); ++it)
      c.push_back(static_cast<double>(it->second));
    double cum = 0.0, weighted = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      cum += c[i];
      weighted += static_cast<double>(i + 1) * c[i];
    }
    const double n = static_cast<double>(c.size());
    s.gini = c.size() > 1 && cum > 0.0
                 ? (2.0 * weighted) / (n * cum) - (n + 1.0) / n
                 : 0.0;
  }

  // Temporal metrics in one forward pass.
  std::size_t repeats = 0;
  std::size_t window_hits = 0;
  constexpr std::size_t kWindow = 64;
  std::deque<std::uint64_t> window;
  FlatMap<std::uint32_t> in_window;  // key -> multiplicity in window
  std::uint64_t prev_key = ~std::uint64_t{0};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t key = pair_key(trace[i]);
    if (i > 0 && key == prev_key) ++repeats;
    if (i > 0 && in_window.contains(key)) ++window_hits;
    prev_key = key;

    window.push_back(key);
    ++in_window[key];
    if (window.size() > kWindow) {
      const std::uint64_t old = window.front();
      window.pop_front();
      std::uint32_t* m = in_window.find(old);
      if (m != nullptr && --(*m) == 0) in_window.erase(old);
    }
  }
  if (trace.size() > 1) {
    s.repeat_probability =
        static_cast<double>(repeats) / static_cast<double>(trace.size() - 1);
    s.locality_window64 = static_cast<double>(window_hits) /
                          static_cast<double>(trace.size() - 1);
  }
  return s;
}

}  // namespace rdcn::trace
