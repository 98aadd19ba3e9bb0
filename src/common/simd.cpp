#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RDCN_SIMD_X86 1
#else
#define RDCN_SIMD_X86 0
#endif

namespace rdcn::simd {

// ---------------------------------------------------------------------------
// Scalar reference — the contract every vector variant must match bit-for-
// bit.  Branchless selects keep the loops tight so the forced-scalar mode
// is a fair baseline, not a strawman.
// ---------------------------------------------------------------------------
namespace scalar {

FindArgmin find_argmin_u64(const std::uint64_t* keys,
                           const std::uint64_t* ranks, std::size_t n,
                           std::uint64_t needle) noexcept {
  // Walking down from the top, an unconditional select keeps the lowest
  // index of the needle, and `<=` against a start of ~0 takes the first
  // entry visited whatever its rank and the lowest index of a tie.
  FindArgmin out{kNpos, kNpos};
  std::uint64_t least_rank = ~std::uint64_t{0};
  for (std::size_t i = n; i-- > 0;) {
    out.found = keys[i] == needle ? i : out.found;
    const bool better = ranks[i] <= least_rank;
    least_rank = better ? ranks[i] : least_rank;
    out.least = better ? i : out.least;
  }
  return out;
}

std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                     std::uint64_t needle) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == needle) return i;
  return kNpos;
}

}  // namespace scalar

#if RDCN_SIMD_X86

// ---------------------------------------------------------------------------
// Vector variants, built with per-function target attributes so the TU
// itself compiles without -mavx2; these bodies only execute after the
// dispatcher confirmed CPU support.
// ---------------------------------------------------------------------------
namespace {

__attribute__((target("avx2"))) std::size_t find_u64_avx2(
    const std::uint64_t* keys, std::size_t n, std::uint64_t needle) noexcept {
  const __m256i want = _mm256_set1_epi64x(static_cast<long long>(needle));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi64(k, want));
    if (mask != 0)
      return i + static_cast<std::size_t>(__builtin_ctz(mask)) / 8;
  }
  for (; i < n; ++i)
    if (keys[i] == needle) return i;
  return kNpos;
}

// The AVX-512 row scan: one pass of 8-lane blocks in which lane j keeps
// the least rank seen at the indices ≡ j (mod 8) with that index, and the
// first index of the needle.  Compares go to mask registers and are
// natively unsigned (vpcmpuq), so ranks may use the whole u64 range.
// Every load is masked to the entries below n, the last block's mask
// comes from arithmetic on n, and a lane updates only on a strictly less
// rank, so it keeps its earliest minimum: the loop has no branch on the
// data.  Three halving steps then fold the lanes under (rank, index)
// order, so lane 0 ends with the least rank's lowest index.
//
// GCC 12's *unmasked* AVX-512 permute intrinsics expand through
// _mm512_undefined_epi32() in the header, which trips a spurious
// -Wmaybe-uninitialized from the header itself (GCC PR105593); silence it
// for this kernel only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) FindArgmin find_argmin_u64_avx512(
    const std::uint64_t* keys, const std::uint64_t* ranks, std::size_t n,
    std::uint64_t needle) noexcept {
  if (n == 0) return {kNpos, kNpos};
  const auto block_mask = [n](std::size_t at) {
    return static_cast<__mmask8>((1u << std::min<std::size_t>(n - at, 8)) -
                                 1);
  };
  const __m512i want = _mm512_set1_epi64(static_cast<long long>(needle));
  const __m512i none = _mm512_set1_epi64(-1);
  const __m512i lanes = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  // The first block seeds every lane.  A lane at or past n holds rank ~0
  // and an index >= n, so it loses every tie to a real entry.
  __mmask8 live = block_mask(0);
  __m512i least_rank = _mm512_mask_loadu_epi64(none, live, ranks);
  __m512i least_at = lanes;
  __m512i found = _mm512_mask_mov_epi64(
      none,
      _mm512_mask_cmpeq_epu64_mask(live, _mm512_maskz_loadu_epi64(live, keys),
                                   want),
      lanes);
  __m512i idx = lanes;
  for (std::size_t at = 8; at < n; at += 8) {
    live = block_mask(at);
    idx = _mm512_add_epi64(idx, _mm512_set1_epi64(8));
    const __m512i k = _mm512_maskz_loadu_epi64(live, keys + at);
    const __m512i r = _mm512_maskz_loadu_epi64(live, ranks + at);
    found = _mm512_mask_min_epu64(
        found, _mm512_mask_cmpeq_epu64_mask(live, k, want), found, idx);
    const __mmask8 less = _mm512_mask_cmplt_epu64_mask(live, r, least_rank);
    least_rank = _mm512_mask_mov_epi64(least_rank, less, r);
    least_at = _mm512_mask_mov_epi64(least_at, less, idx);
  }
  for (const long long stride : {4, 2, 1}) {
    const __m512i swap = _mm512_xor_si512(lanes, _mm512_set1_epi64(stride));
    found = _mm512_min_epu64(found, _mm512_permutexvar_epi64(swap, found));
    const __m512i rank = _mm512_permutexvar_epi64(swap, least_rank);
    const __m512i at = _mm512_permutexvar_epi64(swap, least_at);
    const __mmask8 less = static_cast<__mmask8>(
        _mm512_cmplt_epu64_mask(rank, least_rank) |
        (_mm512_cmpeq_epu64_mask(rank, least_rank) &
         _mm512_cmplt_epu64_mask(at, least_at)));
    least_rank = _mm512_mask_mov_epi64(least_rank, less, rank);
    least_at = _mm512_mask_mov_epi64(least_at, less, at);
  }
  return {static_cast<std::size_t>(
              _mm_cvtsi128_si64(_mm512_castsi512_si128(found))),
          static_cast<std::size_t>(
              _mm_cvtsi128_si64(_mm512_castsi512_si128(least_at)))};
}

#pragma GCC diagnostic pop

}  // namespace

#endif  // RDCN_SIMD_X86

namespace {

constexpr detail::KernelTable kScalarTable = {
    scalar::find_argmin_u64, scalar::find_u64, Isa::kScalar,
};

#if RDCN_SIMD_X86
constexpr detail::KernelTable kAvx2Table = {
    scalar::find_argmin_u64, find_u64_avx2, Isa::kAvx2,
};

constexpr detail::KernelTable kAvx512Table = {
    find_argmin_u64_avx512, find_u64_avx2, Isa::kAvx512,
};
#endif

const detail::KernelTable* native_table() noexcept {
#if RDCN_SIMD_X86
  static const detail::KernelTable* table = [] {
    if (__builtin_cpu_supports("avx512f")) return &kAvx512Table;
    if (__builtin_cpu_supports("avx2")) return &kAvx2Table;
    return &kScalarTable;
  }();
  return table;
#else
  return &kScalarTable;
#endif
}

bool env_force_scalar() noexcept {
  const char* value = std::getenv("RDCN_FORCE_SCALAR_KERNELS");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

std::atomic<bool>& forced_flag() noexcept {
  static std::atomic<bool> forced{env_force_scalar()};
  return forced;
}

std::atomic<const detail::KernelTable*>& active_table() noexcept {
  static std::atomic<const detail::KernelTable*> table{
      forced_flag().load(std::memory_order_relaxed) ? &kScalarTable
                                                    : native_table()};
  return table;
}

}  // namespace

const detail::KernelTable* detail::active_kernels() noexcept {
  return active_table().load(std::memory_order_relaxed);
}

const detail::KernelTable* detail::kernel_table(Isa isa) noexcept {
  if (isa > detected_isa()) return nullptr;
#if RDCN_SIMD_X86
  if (isa == Isa::kAvx512) return &kAvx512Table;
  if (isa == Isa::kAvx2) return &kAvx2Table;
#endif
  return &kScalarTable;
}

Isa active_isa() noexcept { return detail::active_kernels()->isa; }

Isa detected_isa() noexcept { return native_table()->isa; }

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      return "scalar";
  }
  return "unknown";
}

bool force_scalar() noexcept {
  return forced_flag().load(std::memory_order_relaxed);
}

void set_force_scalar(bool force) noexcept {
  forced_flag().store(force, std::memory_order_relaxed);
  active_table().store(force ? &kScalarTable : native_table(),
                       std::memory_order_relaxed);
}

}  // namespace rdcn::simd
