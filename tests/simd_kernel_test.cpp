// Randomized equivalence suite for the hot-kernel library
// (common/simd.hpp): every kernel of every tier the host supports
// (scalar, AVX2, AVX-512, each reached through its own kernel table) and
// the dispatched entry points must match the scalar reference bit-for-bit
// on fuzzed inputs — ties on the primary key, full (primary, secondary)
// ties, duplicates, empty and short rows included.  This is the contract
// that lets the serve pipeline treat kernel dispatch as invisible: ledgers
// cannot depend on the selected instruction set.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

/// Runs `body(argmin, find)` once per supported tier with that tier's
/// kernels, then once with the dispatched entry points (which also cover
/// the inline short-row path).
template <typename Body>
void for_every_tier(const Body& body) {
  for (const simd::detail::KernelTable* table : supported_tiers()) {
    SCOPED_TRACE(std::string("tier=") + simd::isa_name(table->isa));
    body(table->argmin_u64_pair, table->find_u64);
  }
  SCOPED_TRACE(std::string("dispatch=") + simd::isa_name(simd::active_isa()));
  body(&simd::argmin_u64_pair, &simd::find_u64);
}

/// Row lengths that cover the empty/short/unaligned/long spectrum: all
/// vector-width remainders at both ends, every unrolled loop of both
/// vector argmins (8-, 16- and 32-element blocks plus their tails), the
/// paper's b range and the microbench sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                12, 15, 16, 17, 18, 24, 31, 32, 33, 47,
                                48, 63, 64, 65, 100, 255};

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

TEST(SimdKernels, ArgminPairMatchesScalarOnFuzzedRows) {
  Xoshiro256 rng(1001);
  for_every_tier([&](auto argmin, auto) {
    for (const std::size_t n : kLengths) {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> primary(n), secondary(n);
        // Heavy tie pressure: primary from a tiny range (the usage counter
        // shape — mostly 0 with small bumps), secondary from a small range
        // too so full (primary, secondary) duplicates occur and the
        // lowest-index contract is actually exercised.
        const std::uint64_t primary_range = 1 + rng.next_below(4);
        const std::uint64_t secondary_range = 1 + rng.next_below(8);
        for (std::size_t i = 0; i < n; ++i) {
          primary[i] = rng.next_below(primary_range);
          secondary[i] = rng.next_below(secondary_range);
        }
        const std::size_t want =
            simd::scalar::argmin_u64_pair(primary.data(), secondary.data(), n);
        const std::size_t got = argmin(primary.data(), secondary.data(), n);
        ASSERT_EQ(got, want) << "n=" << n << " round=" << round;
        if (n == 0) {
          EXPECT_EQ(got, simd::kNpos);
        }
      }
      // Large distinct values near the 2^63 contract boundary.
      std::vector<std::uint64_t> primary(n), secondary(n);
      for (std::size_t i = 0; i < n; ++i) {
        primary[i] = (std::uint64_t{1} << 62) + rng.next_below(1u << 20);
        secondary[i] = rng.next() >> 1;  // < 2^63
      }
      EXPECT_EQ(
          argmin(primary.data(), secondary.data(), n),
          simd::scalar::argmin_u64_pair(primary.data(), secondary.data(), n))
          << "n=" << n;
    }
  });
}

TEST(SimdKernels, ArgminPairTieOnUsageBreaksByAgeThenIndex) {
  // Deterministic spot checks of the lexicographic contract.
  const std::uint64_t usage[] = {3, 1, 1, 1, 2};
  const std::uint64_t age[] = {0, 7, 5, 5, 1};
  for_every_tier([&](auto argmin, auto) {
    // usage ties at 1 → age decides (5 < 7) → full tie at (1,5) → index 2.
    EXPECT_EQ(argmin(usage, age, 5), 2u);
    EXPECT_EQ(argmin(usage, age, 2), 1u);
    EXPECT_EQ(argmin(usage, age, 1), 0u);
    EXPECT_EQ(argmin(usage, age, 0), simd::kNpos);
  });
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
