#include "offline_opt.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "common/assert.hpp"

namespace rdcn::paging {

namespace {

/// Remaps arbitrary 64-bit keys onto 0..m-1 and asserts the instance is
/// small enough for the exponential DPs.
std::vector<std::uint32_t> compress_keys(const std::vector<Key>& sequence,
                                         std::size_t capacity,
                                         std::size_t* out_m) {
  std::unordered_map<Key, std::uint32_t> id;
  std::vector<std::uint32_t> compact;
  compact.reserve(sequence.size());
  for (Key k : sequence) {
    const auto fresh = static_cast<std::uint32_t>(id.size());
    compact.push_back(id.try_emplace(k, fresh).first->second);
  }
  *out_m = id.size();
  RDCN_ASSERT_MSG(*out_m <= 12, "brute-force paging DP: universe too large");
  RDCN_ASSERT_MSG(capacity <= 4, "brute-force paging DP: capacity too large");
  return compact;
}

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::uint64_t brute_force_faults(std::size_t capacity,
                                 const std::vector<Key>& sequence) {
  std::size_t m = 0;
  const std::vector<std::uint32_t> seq = compress_keys(sequence, capacity, &m);
  if (seq.empty()) return 0;
  if (m <= capacity) {
    // Everything fits: each distinct key faults exactly once.
    return m;
  }
  const std::size_t num_states = std::size_t{1} << m;
  std::vector<std::uint32_t> cost(num_states, kInf), next(num_states, kInf);
  cost[0] = 0;
  for (std::uint32_t k : seq) {
    std::fill(next.begin(), next.end(), kInf);
    const std::uint32_t bit = std::uint32_t{1} << k;
    for (std::size_t s = 0; s < num_states; ++s) {
      if (cost[s] == kInf) continue;
      if (s & bit) {
        next[s] = std::min(next[s], cost[s]);  // hit
        continue;
      }
      const std::uint32_t c = cost[s] + 1;  // fault
      if (std::popcount(s) < static_cast<int>(capacity)) {
        next[s | bit] = std::min(next[s | bit], c);
      } else {
        for (std::size_t t = s; t != 0; t &= t - 1) {
          const std::size_t evict = t & (~t + 1);  // lowest set bit
          const std::size_t ns = (s & ~evict) | bit;
          next[ns] = std::min(next[ns], c);
        }
      }
    }
    cost.swap(next);
  }
  const std::uint32_t best = *std::min_element(cost.begin(), cost.end());
  RDCN_ASSERT(best != kInf);
  return best;
}

std::uint64_t optimal_faults_bypassing(std::size_t capacity,
                                       const std::vector<Key>& sequence) {
  std::size_t m = 0;
  const std::vector<std::uint32_t> seq = compress_keys(sequence, capacity, &m);
  if (seq.empty()) return 0;
  const std::size_t num_states = std::size_t{1} << m;
  std::vector<std::uint32_t> cost(num_states, kInf), next(num_states, kInf);
  cost[0] = 0;
  for (std::uint32_t k : seq) {
    std::fill(next.begin(), next.end(), kInf);
    const std::uint32_t bit = std::uint32_t{1} << k;
    for (std::size_t s = 0; s < num_states; ++s) {
      if (cost[s] == kInf) continue;
      if (s & bit) {
        next[s] = std::min(next[s], cost[s]);  // cached: free
        continue;
      }
      const std::uint32_t c = cost[s] + 1;
      // Option 1: bypass — serve without fetching.
      next[s] = std::min(next[s], c);
      // Option 2: fetch.
      if (std::popcount(s) < static_cast<int>(capacity)) {
        next[s | bit] = std::min(next[s | bit], c);
      } else {
        for (std::size_t t = s; t != 0; t &= t - 1) {
          const std::size_t evict = t & (~t + 1);
          const std::size_t ns = (s & ~evict) | bit;
          next[ns] = std::min(next[ns], c);
        }
      }
    }
    cost.swap(next);
  }
  const std::uint32_t best = *std::min_element(cost.begin(), cost.end());
  RDCN_ASSERT(best != kInf);
  return best;
}

}  // namespace rdcn::paging
