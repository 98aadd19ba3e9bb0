// rdcn: the hot-kernel library — small, portable SIMD primitives behind
// runtime dispatch.
//
// The serve pipeline's innermost loops include two tiny, branch-free
// array kernels over the SoA columns the matchers keep resident:
//
//   find_argmin_u64   the one-pass scan of every ranked row
//                     (common/ranked_row.hpp: BMA's rack rows and the LRU,
//                     FIFO, LFU and ARC engines): the first index of a
//                     needle key and the index of the least rank (lowest
//                     index among equal ranks, so results never depend on
//                     lane order),
//   find_u64          key lookups in ranked rows, in marking's and
//                     CLOCK's key vectors and in the trace statistics'
//                     64-request locality ring (first occurrence).
//
// Each kernel has a scalar reference implementation (namespace simd::scalar,
// always compiled, the semantic contract) and one vector variant: AVX-512
// for the row scan (an AVX2-only CPU runs the scalar scan), AVX2 for the
// find.  Runtime CPUID dispatch selects them ONCE at startup; the library
// is built without -mavx2 so one binary runs everywhere, and vector code
// is gated behind per-function target attributes.  A vector kernel stays
// only where it pays on the reference host (BENCH_kernels.json, written by
// bench/micro_kernels).
// Setting the environment variable RDCN_FORCE_SCALAR_KERNELS (to anything
// but "0") pins the dispatch to the scalar reference; set_force_scalar()
// flips it programmatically (tests run both modes in one process).
//
// Every vector variant is bit-identical to its scalar reference on every
// input (pinned by tests/simd_kernel_test.cpp, which runs each tier's
// kernel table the host supports on fuzzed rows, ties and empty/short rows
// included), so callers may treat dispatch as invisible: ledgers cannot
// depend on the selected ISA.
//
// Value-range contract: none.  Keys and ranks may take any u64 value; the
// row scan compares ranks unsigned over the whole range.
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

/// What one row scan yields; each index is kNpos when there is none.
struct FindArgmin {
  std::size_t found;  ///< first i with keys[i] == needle
  std::size_t least;  ///< first i with the least ranks[i]
};

// ---------------------------------------------------------------------------
// Scalar reference implementations — the semantic contract of every kernel.
// Always available (equivalence tests and microbenches call them directly).
// ---------------------------------------------------------------------------
namespace scalar {

/// One pass over a row of n (key, rank) entries: the first index of
/// `needle` among the keys and the first index of the least rank.
FindArgmin find_argmin_u64(const std::uint64_t* keys,
                           const std::uint64_t* ranks, std::size_t n,
                           std::uint64_t needle) noexcept;

/// First index with keys[i] == needle; kNpos when absent.
std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                     std::uint64_t needle) noexcept;

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points.  One relaxed atomic load selects the kernel
// table; rows short enough that vector setup cannot pay for itself take the
// inline scalar fast path below without touching the table.
// ---------------------------------------------------------------------------
namespace detail {

struct KernelTable {
  FindArgmin (*find_argmin_u64)(const std::uint64_t*, const std::uint64_t*,
                                std::size_t, std::uint64_t) noexcept;
  std::size_t (*find_u64)(const std::uint64_t*, std::size_t,
                          std::uint64_t) noexcept;
  Isa isa;
};

/// The active table (never null after first use).
const KernelTable* active_kernels() noexcept;

/// The table of tier `isa`, or null when this CPU cannot run it (ignores
/// the scalar override, like detected_isa()).  The kernel tests and
/// micro_kernels reach every tier the host supports through it.
const KernelTable* kernel_table(Isa isa) noexcept;

}  // namespace detail

inline FindArgmin find_argmin_u64(const std::uint64_t* keys,
                                  const std::uint64_t* ranks, std::size_t n,
                                  std::uint64_t needle) noexcept {
  // A vector pass cannot beat four branchless compares; keep the smallest
  // rows (b <= 4 in the paper's low range) off the dispatch table.
  if (n <= 4) return scalar::find_argmin_u64(keys, ranks, n, needle);
  return detail::active_kernels()->find_argmin_u64(keys, ranks, n, needle);
}

inline std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                            std::uint64_t needle) noexcept {
  if (n <= 4) return scalar::find_u64(keys, n, needle);
  return detail::active_kernels()->find_u64(keys, n, needle);
}

}  // namespace rdcn::simd
