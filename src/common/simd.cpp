#include "common/simd.hpp"

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
// bit.  Branchless selects keep the loops tight (same shape as the old BMA
// scan) so the forced-scalar mode is a fair baseline, not a strawman.
// ---------------------------------------------------------------------------
namespace scalar {

std::size_t argmin_u64_pair(const std::uint64_t* primary,
                            const std::uint64_t* secondary,
                            std::size_t n) noexcept {
  std::size_t best = kNpos;
  std::uint64_t best_primary = ~std::uint64_t{0};
  std::uint64_t best_secondary = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    RDCN_DCHECK(primary[i] < (std::uint64_t{1} << 63) &&
                secondary[i] < (std::uint64_t{1} << 63));
    const bool better =
        (primary[i] < best_primary) |
        ((primary[i] == best_primary) & (secondary[i] < best_secondary));
    best_primary = better ? primary[i] : best_primary;
    best_secondary = better ? secondary[i] : best_secondary;
    best = better ? i : best;
  }
  return best;
}

std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                     std::uint64_t needle) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == needle) return i;
  return kNpos;
}

std::size_t find_u32(const std::uint32_t* keys, std::size_t n,
                     std::uint32_t needle) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    if (keys[i] == needle) return i;
  return kNpos;
}

}  // namespace scalar

#if RDCN_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 variants.  Built with per-function target attributes so the TU
// itself compiles without -mavx2; these bodies only execute after the
// dispatcher confirmed CPU support.
//
// The (primary, secondary) compares are *signed* epi64 (AVX2 has no
// unsigned 64-bit compare); the < 2^63 input contract makes them agree
// with the scalar unsigned compares.  Lanes are merged with a strictly-
// better-than update, so each lane retains its earliest minimum, and the
// final horizontal reduction breaks full ties by lowest index — exactly
// the scalar reference's first-occurrence semantics.
// ---------------------------------------------------------------------------
namespace {

/// One accumulator set of the unrolled argmin: running per-lane best
/// (primary, secondary, index), updated with a strictly-better-than
/// select so every lane retains its earliest minimum.
struct ArgminAcc {
  __m256i p, s, i;
};

__attribute__((target("avx2"), always_inline)) inline void argmin_step(
    ArgminAcc& acc, const std::uint64_t* primary,
    const std::uint64_t* secondary, std::size_t at, __m256i idx) noexcept {
  const __m256i p =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(primary + at));
  const __m256i s =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(secondary + at));
  const __m256i lt = _mm256_cmpgt_epi64(acc.p, p);
  const __m256i eq = _mm256_cmpeq_epi64(acc.p, p);
  const __m256i lt2 = _mm256_cmpgt_epi64(acc.s, s);
  const __m256i better = _mm256_or_si256(lt, _mm256_and_si256(eq, lt2));
  acc.p = _mm256_blendv_epi8(acc.p, p, better);
  acc.s = _mm256_blendv_epi8(acc.s, s, better);
  acc.i = _mm256_blendv_epi8(acc.i, idx, better);
}

/// Folds accumulator `b` into `a` under the full lexicographic
/// (primary, secondary, index) order.  Lane indices are globally distinct
/// across sets, so the index tiebreak reproduces the scalar reference's
/// first-occurrence semantics exactly.
__attribute__((target("avx2"), always_inline)) inline void argmin_merge(
    ArgminAcc& a, const ArgminAcc& b) noexcept {
  const __m256i ltp = _mm256_cmpgt_epi64(a.p, b.p);
  const __m256i eqp = _mm256_cmpeq_epi64(a.p, b.p);
  const __m256i lts = _mm256_cmpgt_epi64(a.s, b.s);
  const __m256i eqs = _mm256_cmpeq_epi64(a.s, b.s);
  const __m256i lti = _mm256_cmpgt_epi64(a.i, b.i);
  const __m256i better = _mm256_or_si256(
      ltp,
      _mm256_and_si256(eqp,
                       _mm256_or_si256(lts, _mm256_and_si256(eqs, lti))));
  a.p = _mm256_blendv_epi8(a.p, b.p, better);
  a.s = _mm256_blendv_epi8(a.s, b.s, better);
  a.i = _mm256_blendv_epi8(a.i, b.i, better);
}

__attribute__((target("avx2"))) ArgminAcc argmin_load(
    const std::uint64_t* primary, const std::uint64_t* secondary,
    std::size_t at) noexcept {
  return ArgminAcc{
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(primary + at)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(secondary + at)),
      _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(at)),
                       _mm256_setr_epi64x(0, 1, 2, 3))};
}

__attribute__((target("avx2"))) std::size_t argmin_u64_pair_avx2(
    const std::uint64_t* primary, const std::uint64_t* secondary,
    std::size_t n) noexcept {
  if (n < 8) return scalar::argmin_u64_pair(primary, secondary, n);
  // Independent accumulator sets break the compare->blend dependency chain
  // (the loop's latency bottleneck): four sets at 16 elements per
  // iteration on wide rows, two sets at 8 on the remainder/short rows.
  ArgminAcc a = argmin_load(primary, secondary, 0);
  ArgminAcc b = argmin_load(primary, secondary, 4);
  std::size_t i = 8;
  if (n >= 32) {
    ArgminAcc c = argmin_load(primary, secondary, 8);
    ArgminAcc d = argmin_load(primary, secondary, 12);
    __m256i idx_a = a.i;
    __m256i idx_b = b.i;
    __m256i idx_c = c.i;
    __m256i idx_d = d.i;
    const __m256i sixteen = _mm256_set1_epi64x(16);
    for (i = 16; i + 16 <= n; i += 16) {
      idx_a = _mm256_add_epi64(idx_a, sixteen);
      idx_b = _mm256_add_epi64(idx_b, sixteen);
      idx_c = _mm256_add_epi64(idx_c, sixteen);
      idx_d = _mm256_add_epi64(idx_d, sixteen);
      argmin_step(a, primary, secondary, i, idx_a);
      argmin_step(b, primary, secondary, i + 4, idx_b);
      argmin_step(c, primary, secondary, i + 8, idx_c);
      argmin_step(d, primary, secondary, i + 12, idx_d);
    }
    argmin_merge(a, c);
    argmin_merge(b, d);
  }
  for (; i + 8 <= n; i += 8) {
    // Indices rebuilt from i: this remainder loop runs at most once after
    // the 16-wide loop and dominates only short (n < 32) rows.
    const __m256i base = _mm256_set1_epi64x(static_cast<long long>(i));
    argmin_step(a, primary, secondary, i,
                _mm256_add_epi64(base, _mm256_setr_epi64x(0, 1, 2, 3)));
    argmin_step(b, primary, secondary, i + 4,
                _mm256_add_epi64(base, _mm256_setr_epi64x(4, 5, 6, 7)));
  }
  argmin_merge(a, b);
  // Horizontal reduction without touching the stack (32-byte stores read
  // back as 8-byte lanes stall on store-forwarding): fold the halves,
  // then the neighbor lanes, with the same lexicographic merge.  The
  // duplicated lanes a permute introduces are full (p, s, i) ties, which
  // the merge keeps stable.
  {
    const ArgminAcc swapped_halves{_mm256_permute4x64_epi64(a.p, 0x4E),
                                   _mm256_permute4x64_epi64(a.s, 0x4E),
                                   _mm256_permute4x64_epi64(a.i, 0x4E)};
    argmin_merge(a, swapped_halves);
    const ArgminAcc swapped_pairs{_mm256_permute4x64_epi64(a.p, 0xB1),
                                  _mm256_permute4x64_epi64(a.s, 0xB1),
                                  _mm256_permute4x64_epi64(a.i, 0xB1)};
    argmin_merge(a, swapped_pairs);
  }
  std::uint64_t bp = static_cast<std::uint64_t>(
      _mm256_extract_epi64(a.p, 0));
  std::uint64_t bs = static_cast<std::uint64_t>(
      _mm256_extract_epi64(a.s, 0));
  std::size_t best = static_cast<std::size_t>(
      _mm256_extract_epi64(a.i, 0));
  // Tail indices exceed every vector index, so strict less-than suffices.
  for (; i < n; ++i) {
    const bool better =
        (primary[i] < bp) | ((primary[i] == bp) & (secondary[i] < bs));
    bp = better ? primary[i] : bp;
    bs = better ? secondary[i] : bs;
    best = better ? i : best;
  }
  return best;
}

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

__attribute__((target("avx2"))) std::size_t find_u32_avx2(
    const std::uint32_t* keys, std::size_t n, std::uint32_t needle) noexcept {
  const __m256i want = _mm256_set1_epi32(static_cast<int>(needle));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, want)));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i)
    if (keys[i] == needle) return i;
  return kNpos;
}

// ---------------------------------------------------------------------------
// AVX-512 argmin.  The AVX2 select loop is port-limited (epi64 compares
// and wide blends fight over the same ports); AVX-512 compares go to mask
// registers (vpcmpuq — natively *unsigned*, so not even the < 2^63
// contract is load-bearing here), mask logic is one k-op, and masked
// moves are single-uop — at twice the lane width.  Only argmin gets a
// 512-bit variant: it is the one kernel on the per-request critical path
// at large b; find reuses the AVX2 bodies in the AVX-512 table.
//
// GCC 12's *unmasked* AVX-512 permute/extract intrinsics expand through
// _mm512_undefined_epi32() in the header, which trips a spurious
// -Wmaybe-uninitialized from the header itself (GCC PR105593); silence it
// for this section only.
// ---------------------------------------------------------------------------
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// One 8-lane accumulator set of the AVX-512 argmin.
struct ArgminAcc512 {
  __m512i p, s, i;
};

__attribute__((target("avx512f"), always_inline)) inline void argmin_step512(
    ArgminAcc512& acc, const std::uint64_t* primary,
    const std::uint64_t* secondary, std::size_t at, __m512i idx) noexcept {
  const __m512i p = _mm512_loadu_si512(primary + at);
  const __m512i s = _mm512_loadu_si512(secondary + at);
  const __mmask8 lt = _mm512_cmplt_epu64_mask(p, acc.p);
  const __mmask8 eq = _mm512_cmpeq_epu64_mask(p, acc.p);
  const __mmask8 lt2 = _mm512_cmplt_epu64_mask(s, acc.s);
  const __mmask8 better =
      static_cast<__mmask8>(lt | (eq & lt2));
  acc.p = _mm512_mask_mov_epi64(acc.p, better, p);
  acc.s = _mm512_mask_mov_epi64(acc.s, better, s);
  acc.i = _mm512_mask_mov_epi64(acc.i, better, idx);
}

/// Folds `b` into `a` under lexicographic (primary, secondary, index).
__attribute__((target("avx512f"), always_inline)) inline void argmin_merge512(
    ArgminAcc512& a, const ArgminAcc512& b) noexcept {
  const __mmask8 ltp = _mm512_cmplt_epu64_mask(b.p, a.p);
  const __mmask8 eqp = _mm512_cmpeq_epu64_mask(b.p, a.p);
  const __mmask8 lts = _mm512_cmplt_epu64_mask(b.s, a.s);
  const __mmask8 eqs = _mm512_cmpeq_epu64_mask(b.s, a.s);
  const __mmask8 lti = _mm512_cmplt_epu64_mask(b.i, a.i);
  const __mmask8 better =
      static_cast<__mmask8>(ltp | (eqp & (lts | (eqs & lti))));
  a.p = _mm512_mask_mov_epi64(a.p, better, b.p);
  a.s = _mm512_mask_mov_epi64(a.s, better, b.s);
  a.i = _mm512_mask_mov_epi64(a.i, better, b.i);
}

__attribute__((target("avx512f"))) std::size_t argmin_u64_pair_avx512(
    const std::uint64_t* primary, const std::uint64_t* secondary,
    std::size_t n) noexcept {
  if (n < 16) return argmin_u64_pair_avx2(primary, secondary, n);
  const __m512i lane_offsets = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  ArgminAcc512 a{_mm512_loadu_si512(primary), _mm512_loadu_si512(secondary),
                 lane_offsets};
  ArgminAcc512 b{
      _mm512_loadu_si512(primary + 8), _mm512_loadu_si512(secondary + 8),
      _mm512_add_epi64(lane_offsets, _mm512_set1_epi64(8))};
  __m512i idx_a = a.i;
  __m512i idx_b = b.i;
  const __m512i sixteen = _mm512_set1_epi64(16);
  std::size_t i = 16;
  for (; i + 16 <= n; i += 16) {
    idx_a = _mm512_add_epi64(idx_a, sixteen);
    idx_b = _mm512_add_epi64(idx_b, sixteen);
    argmin_step512(a, primary, secondary, i, idx_a);
    argmin_step512(b, primary, secondary, i + 8, idx_b);
  }
  argmin_merge512(a, b);
  // In-register horizontal reduction: fold 256-bit halves, then 128-bit
  // halves, then neighbor lanes.  Permute-duplicated lanes are full
  // (p, s, i) ties, which the merge keeps stable.
  {
    // permutexvar instead of shuffle_i64x2: same one-uop lane swap, and it
    // sidesteps a GCC 12 -Wmaybe-uninitialized false positive in the
    // unmasked shuffle's header wrapper.
    const __m512i half_swap = _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3);
    const ArgminAcc512 h{_mm512_permutexvar_epi64(half_swap, a.p),
                         _mm512_permutexvar_epi64(half_swap, a.s),
                         _mm512_permutexvar_epi64(half_swap, a.i)};
    argmin_merge512(a, h);
    const ArgminAcc512 q{_mm512_permutex_epi64(a.p, 0x4E),
                         _mm512_permutex_epi64(a.s, 0x4E),
                         _mm512_permutex_epi64(a.i, 0x4E)};
    argmin_merge512(a, q);
    const ArgminAcc512 w{_mm512_permutex_epi64(a.p, 0xB1),
                         _mm512_permutex_epi64(a.s, 0xB1),
                         _mm512_permutex_epi64(a.i, 0xB1)};
    argmin_merge512(a, w);
  }
  std::uint64_t bp = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm512_castsi512_si128(a.p)));
  std::uint64_t bs = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm512_castsi512_si128(a.s)));
  std::size_t best = static_cast<std::size_t>(
      _mm_cvtsi128_si64(_mm512_castsi512_si128(a.i)));
  // Branchless scalar tail; tail indices exceed every vector index.
  for (; i < n; ++i) {
    const bool better =
        (primary[i] < bp) | ((primary[i] == bp) & (secondary[i] < bs));
    bp = better ? primary[i] : bp;
    bs = better ? secondary[i] : bs;
    best = better ? i : best;
  }
  return best;
}

#pragma GCC diagnostic pop

}  // namespace

#endif  // RDCN_SIMD_X86

namespace {

constexpr detail::KernelTable kScalarTable = {
    scalar::argmin_u64_pair, scalar::find_u64, scalar::find_u32, Isa::kScalar,
};

#if RDCN_SIMD_X86
constexpr detail::KernelTable kAvx2Table = {
    argmin_u64_pair_avx2, find_u64_avx2, find_u32_avx2, Isa::kAvx2,
};

constexpr detail::KernelTable kAvx512Table = {
    argmin_u64_pair_avx512, find_u64_avx2, find_u32_avx2, Isa::kAvx512,
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
