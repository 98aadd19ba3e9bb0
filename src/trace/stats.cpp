#include "trace/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/simd.hpp"

namespace rdcn::trace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> pair_counts_sorted(
    const Trace& trace) {
  // One counter per pair at its triangular slot; the pairs are listed in
  // first-touch order, then sorted.
  std::vector<std::uint64_t> counts(pair_slots(trace.num_racks()));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Request& r : trace) {
    const std::uint64_t key = pair_key(r);
    if (counts[pair_slot(key)]++ == 0) out.emplace_back(key, 0);
  }
  for (auto& [key, count] : out) count = counts[pair_slot(key)];
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
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

  // Temporal metrics in one forward pass.  Request j's key sits at
  // ring[j % 64], so before request i is stored the ring's first
  // min(i, 64) entries are the previous min(i, 64) requests.
  std::size_t repeats = 0;
  std::size_t window_hits = 0;
  constexpr std::size_t kWindow = 64;
  std::array<std::uint64_t, kWindow> ring{};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t key = pair_key(trace[i]);
    if (i > 0 && key == ring[(i - 1) % kWindow]) ++repeats;
    if (simd::find_u64(ring.data(), std::min(i, kWindow), key) != simd::kNpos)
      ++window_hits;
    ring[i % kWindow] = key;
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
