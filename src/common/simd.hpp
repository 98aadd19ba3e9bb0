// rdcn: the hot-kernel library — small, portable SIMD primitives behind
// runtime dispatch.
//
// The serve pipeline's innermost loops include three tiny, branch-free
// array kernels over the SoA columns the matchers keep resident:
//
//   argmin_u64_pair   BMA's eviction scan: least (usage, admitted_at) with
//                     index capture (lexicographic, lowest index on full
//                     ties, so results never depend on lane order),
//   find_u64/find_u32 membership scans over rack-row keys / b-matching
//                     adjacency (first occurrence).
//
// Each kernel has a scalar reference implementation (namespace simd::scalar,
// always compiled, the semantic contract) plus an AVX2 variant, and the
// latency-critical argmin an AVX-512 one, selected ONCE at startup by
// runtime CPUID dispatch — the library is built without -mavx2 so one
// binary runs everywhere; vector code is gated behind per-function target
// attributes.  A vector kernel stays only where it pays on the reference
// host (BENCH_kernels.json, written by bench/micro_kernels).
// Setting the environment variable RDCN_FORCE_SCALAR_KERNELS (to anything
// but "0") pins the dispatch to the scalar reference; set_force_scalar()
// flips it programmatically (tests run both modes in one process).
//
// Every vector variant is bit-identical to its scalar reference on every
// input (pinned by tests/simd_kernel_test.cpp on fuzzed rows, ties and
// empty/short rows included), so callers may treat dispatch as invisible:
// ledgers cannot depend on the selected ISA.
//
// Value-range contract: argmin_u64_pair compares with *signed* 64-bit SIMD
// compares (AVX2 has no unsigned epi64 compare), so inputs must stay below
// 2^63.  Usage counters and admission clock ticks are bounded by the trace
// length — checked by RDCN_DCHECK in the scalar reference.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"

namespace rdcn::simd {

/// Index sentinel for "not found" / "empty input".
inline constexpr std::size_t kNpos = ~std::size_t{0};

/// Instruction-set level the dispatcher resolved to.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// The level the dispatched kernels actually run at (after the
/// RDCN_FORCE_SCALAR_KERNELS override and any set_force_scalar call).
Isa active_isa() noexcept;

/// The best level this CPU supports (ignores the scalar override).
Isa detected_isa() noexcept;

const char* isa_name(Isa isa) noexcept;

/// True when dispatch is pinned to the scalar reference (env var or hook).
bool force_scalar() noexcept;

/// Programmatic override of RDCN_FORCE_SCALAR_KERNELS: `true` pins the
/// dispatch to the scalar reference, `false` restores the detected ISA.
/// Test/bench hook — not meant for concurrent flipping while kernels run.
void set_force_scalar(bool force) noexcept;

// ---------------------------------------------------------------------------
// Scalar reference implementations — the semantic contract of every kernel.
// Always available (equivalence tests and microbenches call them directly).
// ---------------------------------------------------------------------------
namespace scalar {

/// Index of the lexicographically least (primary[i], secondary[i], i):
/// smallest primary, ties by smallest secondary, full ties by lowest index.
/// kNpos when n == 0.  Inputs must be < 2^63 (see header contract).
std::size_t argmin_u64_pair(const std::uint64_t* primary,
                            const std::uint64_t* secondary,
                            std::size_t n) noexcept;

/// First index with keys[i] == needle; kNpos when absent.
std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                     std::uint64_t needle) noexcept;
std::size_t find_u32(const std::uint32_t* keys, std::size_t n,
                     std::uint32_t needle) noexcept;

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points.  One relaxed atomic load selects the kernel
// table; rows short enough that vector setup cannot pay for itself take the
// inline scalar fast path below without touching the table.
// ---------------------------------------------------------------------------
namespace detail {

struct KernelTable {
  std::size_t (*argmin_u64_pair)(const std::uint64_t*, const std::uint64_t*,
                                 std::size_t) noexcept;
  std::size_t (*find_u64)(const std::uint64_t*, std::size_t,
                          std::uint64_t) noexcept;
  std::size_t (*find_u32)(const std::uint32_t*, std::size_t,
                          std::uint32_t) noexcept;
  Isa isa;
};

/// The active table (never null after first use).
const KernelTable* active_kernels() noexcept;

}  // namespace detail

inline std::size_t argmin_u64_pair(const std::uint64_t* primary,
                                   const std::uint64_t* secondary,
                                   std::size_t n) noexcept {
  // A 4-lane vector pass cannot beat four branchless compares; keep the
  // smallest rows (b <= 4 in the paper's low range) off the dispatch table.
  if (n <= 4) return scalar::argmin_u64_pair(primary, secondary, n);
  return detail::active_kernels()->argmin_u64_pair(primary, secondary, n);
}

inline std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                            std::uint64_t needle) noexcept {
  if (n <= 4) return scalar::find_u64(keys, n, needle);
  return detail::active_kernels()->find_u64(keys, n, needle);
}

inline std::size_t find_u32(const std::uint32_t* keys, std::size_t n,
                            std::uint32_t needle) noexcept {
  if (n <= 8) return scalar::find_u32(keys, n, needle);
  return detail::active_kernels()->find_u32(keys, n, needle);
}

}  // namespace rdcn::simd
