// Randomized equivalence suite for the hot-kernel library
// (common/simd.hpp): every dispatched kernel must match its scalar
// reference bit-for-bit on fuzzed inputs — ties on the primary key, full
// (primary, secondary) ties, duplicates, empty and short rows included —
// under BOTH dispatch modes (detected ISA and forced scalar).  This is
// the contract that lets the serve pipeline treat kernel dispatch as
// invisible: ledgers cannot depend on the selected instruction set.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

using namespace rdcn;

/// Runs `body` under the ambient dispatch mode, then with dispatch forced
/// scalar.  When RDCN_FORCE_SCALAR_KERNELS is set in the environment (the
/// escape hatch for machines whose CPUID over-promises) BOTH passes stay
/// on the scalar table — the equivalence then holds trivially and no
/// vector kernel executes, while the forced-scalar ctest variant still
/// exercises every call site.
template <typename Body>
void for_both_dispatch_modes(const Body& body) {
  const bool ambient = simd::force_scalar();
  {
    SCOPED_TRACE(std::string("dispatch=") +
                 simd::isa_name(simd::active_isa()));
    body();
  }
  simd::set_force_scalar(true);
  {
    SCOPED_TRACE("dispatch=forced-scalar");
    body();
  }
  simd::set_force_scalar(ambient);
}

/// Row lengths that cover the empty/short/unaligned/long spectrum: all
/// vector-width remainders at both ends plus the paper's b range and the
/// microbench sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                12, 15, 16, 17, 18, 31, 33, 64, 65, 255};

TEST(SimdKernels, DispatchModesAreReported) {
  EXPECT_NE(simd::isa_name(simd::active_isa()), nullptr);
  EXPECT_NE(simd::isa_name(simd::detected_isa()), nullptr);
  const bool ambient = simd::force_scalar();
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::force_scalar());
  simd::set_force_scalar(ambient);
}

TEST(SimdKernels, ArgminPairMatchesScalarOnFuzzedRows) {
  Xoshiro256 rng(1001);
  for_both_dispatch_modes([&] {
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
        const std::size_t got =
            simd::argmin_u64_pair(primary.data(), secondary.data(), n);
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
          simd::argmin_u64_pair(primary.data(), secondary.data(), n),
          simd::scalar::argmin_u64_pair(primary.data(), secondary.data(), n))
          << "n=" << n;
    }
  });
}

TEST(SimdKernels, ArgminPairTieOnUsageBreaksByAgeThenIndex) {
  // Deterministic spot checks of the lexicographic contract.
  const std::uint64_t usage[] = {3, 1, 1, 1, 2};
  const std::uint64_t age[] = {0, 7, 5, 5, 1};
  for_both_dispatch_modes([&] {
    // usage ties at 1 → age decides (5 < 7) → full tie at (1,5) → index 2.
    EXPECT_EQ(simd::argmin_u64_pair(usage, age, 5), 2u);
    EXPECT_EQ(simd::argmin_u64_pair(usage, age, 2), 1u);
    EXPECT_EQ(simd::argmin_u64_pair(usage, age, 1), 0u);
    EXPECT_EQ(simd::argmin_u64_pair(usage, age, 0), simd::kNpos);
  });
}

TEST(SimdKernels, FindU64MatchesScalarIncludingDuplicates) {
  Xoshiro256 rng(2002);
  for_both_dispatch_modes([&] {
    for (const std::size_t n : kLengths) {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = rng.next_below(16);  // dense → duplicates guaranteed
        const std::uint64_t needle = rng.next_below(20);  // may be absent
        ASSERT_EQ(simd::find_u64(keys.data(), n, needle),
                  simd::scalar::find_u64(keys.data(), n, needle))
            << "n=" << n << " round=" << round;
      }
    }
  });
}

TEST(SimdKernels, FindU32MatchesScalarIncludingDuplicates) {
  Xoshiro256 rng(3003);
  for_both_dispatch_modes([&] {
    for (const std::size_t n : kLengths) {
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint32_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = static_cast<std::uint32_t>(rng.next_below(16));
        const std::uint32_t needle =
            static_cast<std::uint32_t>(rng.next_below(20));
        ASSERT_EQ(simd::find_u32(keys.data(), n, needle),
                  simd::scalar::find_u32(keys.data(), n, needle))
            << "n=" << n << " round=" << round;
      }
    }
  });
}

}  // namespace
