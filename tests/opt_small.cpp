#include "opt_small.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "common/assert.hpp"

namespace rdcn::core {

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;

}  // namespace

std::uint64_t optimal_dynamic_cost(const Instance& instance,
                                   const trace::Trace& trace) {
  const std::size_t n = trace.num_racks();
  RDCN_ASSERT_MSG(n <= 6, "optimal_dynamic_cost: instance too large");
  const std::size_t cap = instance.offline_degree();

  // Enumerate rack pairs; a matching state is a bitmask over pairs.
  std::vector<std::pair<Rack, Rack>> pairs;
  for (Rack u = 0; u < n; ++u)
    for (Rack v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  const std::size_t m = pairs.size();
  RDCN_ASSERT(m <= 15);

  // Filter feasible states (degree <= cap) and precompute per-request
  // membership and pairwise flip counts.
  std::vector<std::uint32_t> states;
  for (std::uint32_t s = 0; s < (1u << m); ++s) {
    std::size_t degree[6] = {0, 0, 0, 0, 0, 0};
    bool ok = true;
    for (std::size_t i = 0; i < m && ok; ++i) {
      if (!(s & (1u << i))) continue;
      if (++degree[pairs[i].first] > cap || ++degree[pairs[i].second] > cap)
        ok = false;
    }
    if (ok) states.push_back(s);
  }
  const std::size_t S = states.size();

  std::vector<std::uint64_t> dp(S, kInf), next(S, kInf);
  // OPT may pre-install edges before the first request (offline algorithms
  // such as SO-BMA do exactly that), paying α per installed edge.
  RDCN_ASSERT(states[0] == 0);
  for (std::size_t i = 0; i < S; ++i) {
    dp[i] = instance.alpha *
            static_cast<std::uint64_t>(std::popcount(states[i]));
  }

  std::vector<std::uint64_t> serve_then(S);
  for (const Request& r : trace) {
    // Index of the requested pair.
    std::size_t pi = 0;
    while (pairs[pi] != std::make_pair(r.u, r.v) &&
           pairs[pi] != std::make_pair(r.v, r.u))
      ++pi;
    const std::uint32_t bit = 1u << pi;
    const std::uint64_t far_cost = instance.dist(r.u, r.v);

    // Cost after serving in each state.
    for (std::size_t i = 0; i < S; ++i) {
      serve_then[i] =
          dp[i] == kInf ? kInf : dp[i] + ((states[i] & bit) ? 1 : far_cost);
    }
    // Transition: any state change, α per flipped edge.
    for (std::size_t j = 0; j < S; ++j) {
      std::uint64_t best = kInf;
      for (std::size_t i = 0; i < S; ++i) {
        if (serve_then[i] == kInf) continue;
        const int flips = std::popcount(states[i] ^ states[j]);
        const std::uint64_t c =
            serve_then[i] + instance.alpha * static_cast<std::uint64_t>(flips);
        best = std::min(best, c);
      }
      next[j] = best;
    }
    dp.swap(next);
  }
  return *std::min_element(dp.begin(), dp.end());
}

}  // namespace rdcn::core
