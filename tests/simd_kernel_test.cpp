// Randomized equivalence suite for the hot-kernel library
// (common/simd.hpp): every kernel of every tier the host supports
// (scalar, AVX2, AVX-512, each reached through its own kernel table) and
// the dispatched entry points must match a plain reference on fuzzed
// inputs — duplicate keys and ranks, ranks over the whole u64 range,
// empty and short rows included.  This is the contract that lets the
// serve pipeline treat kernel dispatch as invisible: ledgers cannot depend
// on the selected instruction set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ranked_row.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

using namespace rdcn;

/// The kernel table of every tier the host supports, scalar first.  When
/// RDCN_FORCE_SCALAR_KERNELS is set in the environment (the escape hatch
/// for machines whose CPUID over-promises) only the scalar table is
/// returned, so no vector kernel executes, while the forced-scalar ctest
/// variant still exercises every call site.
std::vector<const simd::detail::KernelTable*> supported_tiers() {
  std::vector<const simd::detail::KernelTable*> tiers;
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const simd::detail::KernelTable* table = simd::detail::kernel_table(isa);
    const bool allowed = isa == simd::Isa::kScalar || !simd::force_scalar();
    if (table != nullptr && allowed) tiers.push_back(table);
  }
  return tiers;
}

/// Runs `body(find_argmin, find)` once per supported tier with that
/// tier's kernels, then once with the dispatched entry points (which also
/// cover the inline short-row path).
template <typename Body>
void for_every_tier(const Body& body) {
  for (const simd::detail::KernelTable* table : supported_tiers()) {
    SCOPED_TRACE(std::string("tier=") + simd::isa_name(table->isa));
    body(table->find_argmin_u64, table->find_u64);
  }
  SCOPED_TRACE(std::string("dispatch=") + simd::isa_name(simd::active_isa()));
  body(&simd::find_argmin_u64, &simd::find_u64);
}

/// Row lengths that cover the empty/short/unaligned/long spectrum: all
/// vector-width remainders at both ends, the paper's b range and the
/// microbench sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                12, 15, 16, 17, 18, 24, 31, 32, 33, 47,
                                48, 63, 64, 65, 100, 255};

/// The contract of find_argmin_u64, spelled with the standard algorithms.
simd::FindArgmin reference_scan(const std::vector<std::uint64_t>& keys,
                                const std::vector<std::uint64_t>& ranks,
                                std::size_t n, std::uint64_t needle) {
  const auto key_end = keys.begin() + static_cast<std::ptrdiff_t>(n);
  const auto rank_end = ranks.begin() + static_cast<std::ptrdiff_t>(n);
  const auto hit = std::find(keys.begin(), key_end, needle);
  const auto least = std::min_element(ranks.begin(), rank_end);  // first
  return {hit == key_end ? simd::kNpos
                         : static_cast<std::size_t>(hit - keys.begin()),
          least == rank_end ? simd::kNpos
                            : static_cast<std::size_t>(least - ranks.begin())};
}

TEST(SimdKernels, DispatchModesAreReported) {
  EXPECT_NE(simd::isa_name(simd::active_isa()), nullptr);
  EXPECT_NE(simd::isa_name(simd::detected_isa()), nullptr);
  const bool ambient = simd::force_scalar();
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::force_scalar());
  simd::set_force_scalar(ambient);
}

TEST(SimdKernels, EveryTierUpToTheDetectedOneHasATable) {
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    SCOPED_TRACE(simd::isa_name(isa));
    const simd::detail::KernelTable* table = simd::detail::kernel_table(isa);
    if (isa <= simd::detected_isa()) {
      ASSERT_NE(table, nullptr);
      EXPECT_EQ(table->isa, isa);
    } else {
      EXPECT_EQ(table, nullptr);
    }
  }
}

TEST(SimdKernels, FindArgminMatchesTheContractOnFuzzedRows) {
  // Every length from 0 to 100, so each vector tier runs every masked tail
  // at several block counts.  The row sits at the front of a longer buffer
  // whose guard entries hold the needle and rank 0: a kernel that reads at
  // or past n returns an index >= n and fails.
  Xoshiro256 rng(1001);
  constexpr std::size_t kGuard = 16;
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  for_every_tier([&](auto find_argmin, auto) {
    for (std::size_t n = 0; n <= 100; ++n) {
      for (int round = 0; round < 24; ++round) {
        std::vector<std::uint64_t> keys(n + kGuard), ranks(n + kGuard, 0);
        for (std::size_t i = 0; i < n; ++i) {
          keys[i] = 1 + rng.next_below(4 * n + 4);  // duplicates occur
          switch (round % 4) {
            case 0:  // tiny range: duplicate least ranks, lowest index wins
              ranks[i] = rng.next_below(3);
              break;
            case 1:  // RankedRow::pack(usage, tick) shape
              ranks[i] = rng.next_below(4) << 32 | rng.next_below(64);
              break;
            case 2:  // top bit set, near and at ~0
              ranks[i] = ~std::uint64_t{0} - rng.next_below(3);
              break;
            default:  // the whole u64 range, top bit set or not
              ranks[i] = rng.next() | (rng.next_below(2) != 0 ? kTop : 0);
              break;
          }
        }
        // The needle is absent, present, or the key at the least rank.
        std::uint64_t needle = 0;  // keys are >= 1
        const simd::FindArgmin plain = reference_scan(keys, ranks, n, 0);
        if (n > 0 && round % 3 == 1) needle = keys[rng.next_below(n)];
        if (n > 0 && round % 3 == 2) needle = keys[plain.least];
        for (std::size_t i = n; i < n + kGuard; ++i) keys[i] = needle;
        const simd::FindArgmin want = reference_scan(keys, ranks, n, needle);
        const simd::FindArgmin got =
            find_argmin(keys.data(), ranks.data(), n, needle);
        ASSERT_EQ(got.found, want.found) << "n=" << n << " round=" << round;
        ASSERT_EQ(got.least, want.least) << "n=" << n << " round=" << round;
        if (round % 3 == 0) {
          EXPECT_EQ(got.found, simd::kNpos);
        }
        if (n > 0 && round % 3 == 2) {
          EXPECT_LE(got.found, got.least);
        }
      }
    }
  });
}

TEST(SimdKernels, FindArgminBreaksRankTiesByLowestIndex) {
  // (usage, age) packed as RankedRow ranks: usage ties at 1, age decides
  // (5 < 7), and the full tie at (1, 5) goes to the lower index, 2.
  const std::uint64_t keys[] = {10, 11, 12, 13, 14, 12};
  const std::uint64_t ranks[] = {3ull << 32 | 0, 1ull << 32 | 7,
                                 1ull << 32 | 5, 1ull << 32 | 5,
                                 2ull << 32 | 1, 1ull << 32 | 5};
  const std::uint64_t top[] = {~0ull, ~0ull, 1ull << 63, 1ull << 63, ~0ull};
  using Pair = std::pair<std::size_t, std::size_t>;
  for_every_tier([&](auto find_argmin, auto) {
    const auto scan = [&](const std::uint64_t* r, std::size_t n,
                          std::uint64_t needle) {
      const simd::FindArgmin s = find_argmin(keys, r, n, needle);
      return Pair(s.found, s.least);
    };
    EXPECT_EQ(scan(ranks, 6, 12), Pair(2, 2));
    EXPECT_EQ(scan(ranks, 6, 14), Pair(4, 2));
    EXPECT_EQ(scan(ranks, 2, 12), Pair(simd::kNpos, 1));
    EXPECT_EQ(scan(ranks, 1, 10), Pair(0, 0));
    EXPECT_EQ(scan(ranks, 0, 10), Pair(simd::kNpos, simd::kNpos));
    // Ranks with the top bit set compare unsigned: 2^63 beats ~0.
    EXPECT_EQ(scan(top, 5, 99).second, 2u);
    EXPECT_EQ(scan(top, 2, 99).second, 0u);
  });
}

TEST(RankedRow, PackedRanksOrderPairsAndRefuseWideHalves) {
  // (usage, tick) order: usage first, then tick, over the whole 32 bits.
  EXPECT_LT(RankedRow::pack(0, 0xFFFFFFFFu), RankedRow::pack(1, 0));
  EXPECT_LT(RankedRow::pack(7, 3), RankedRow::pack(7, 4));
  EXPECT_EQ(RankedRow::primary(RankedRow::pack(0xFFFFFFFFu, 9)),
            0xFFFFFFFFu);
  RankedRow row;
  row.push(21, RankedRow::pack(1, 5));
  row.push(22, RankedRow::pack(0, 9));
  row.push(23, RankedRow::pack(0, 0xFFFFFFFFu));
  row.bump_primary(1);  // key 22 becomes (1, 9); (0, 2^32 - 1) is least
  EXPECT_EQ(row.scan(22).found, 1u);
  EXPECT_EQ(row.pop_min(), 23u);
  EXPECT_EQ(row.pop_min(), 21u);
  // The checks hold in every build type: a replay of 2^32 requests or more
  // aborts instead of wrapping a half into a wrong victim.
  EXPECT_DEATH((void)RankedRow::pack(std::uint64_t{1} << 32, 0), "32 bits");
  EXPECT_DEATH((void)RankedRow::pack(0, std::uint64_t{1} << 32), "32 bits");
  row.push(24, RankedRow::pack(0xFFFFFFFFu, 0));
  EXPECT_DEATH(row.bump_primary(row.scan(24).found), "32 bits");
}

TEST(SimdKernels, FindU64MatchesScalarIncludingDuplicates) {
  Xoshiro256 rng(2002);
  for_every_tier([&](auto, auto find) {
    for (const std::size_t n : kLengths) {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = rng.next_below(16);  // dense → duplicates guaranteed
        const std::uint64_t needle = rng.next_below(20);  // may be absent
        ASSERT_EQ(find(keys.data(), n, needle),
                  simd::scalar::find_u64(keys.data(), n, needle))
            << "n=" << n << " round=" << round;
      }
    }
  });
}

}  // namespace
