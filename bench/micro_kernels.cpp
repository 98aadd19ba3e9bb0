// Micro-benchmarks for the hot-kernel library (common/simd.hpp): the
// scalar reference vs the runtime-dispatched SIMD variant of each kernel,
// at the row lengths the serve pipeline actually sees — b ∈ {4, 16, 64,
// 256} for the ranked rows' eviction-scan argmin and key find, plus the
// argmin at 8 and 12 (rdcn_sim's default b), where the AVX-512 tier hands
// the row to the AVX2 kernel.
//
// The scalar side calls simd::scalar::* directly (not the dispatcher with
// forcing flipped), so one run reports both columns without mutating
// global dispatch state.  Note the dispatched wrappers keep rows of n <= 4
// (argmin/find_u64) on an inline scalar fast path by design — at b=4 the
// two columns are expected to tie.  The JSON context records the ISA the
// dispatched column ran at as `simd_isa`.
//
// BM_ArgminPairTier/<isa>/<n> calls each vector tier's argmin the host
// supports through its kernel table (simd::detail::kernel_table), so the
// AVX-512 tier is timed against AVX2 on the same rows: a tier stays only
// if it pays over the one below it.
//
// Build/run: cmake --build build --target bench_micro_kernels &&
//            build/bench/micro_kernels
// The committed BENCH_kernels.json comes from the command in
// bench/README.md (10 interleaved repetitions, median and cv per row).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

using namespace rdcn;

/// One set of fuzzed rows per benchmark repetition pool: 64 rows per
/// length so the kernel does not just replay one branch-predicted row.
struct ArgminRows {
  std::vector<std::vector<std::uint64_t>> primary;
  std::vector<std::vector<std::uint64_t>> secondary;
};

ArgminRows make_argmin_rows(std::size_t n) {
  Xoshiro256 rng(77 + n);
  ArgminRows rows;
  for (int r = 0; r < 64; ++r) {
    std::vector<std::uint64_t> p(n), s(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = rng.next_below(4);   // usage-counter shape: heavy ties
      s[i] = 1 + rng.next_below(1u << 20);  // admission ticks: distinct-ish
    }
    rows.primary.push_back(std::move(p));
    rows.secondary.push_back(std::move(s));
  }
  return rows;
}

void BM_ArgminPairScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ArgminRows rows = make_argmin_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::scalar::argmin_u64_pair(
        rows.primary[r].data(), rows.secondary[r].data(), n));
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArgminPairScalar)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void BM_ArgminPairSimd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ArgminRows rows = make_argmin_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::argmin_u64_pair(
        rows.primary[r].data(), rows.secondary[r].data(), n));
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArgminPairSimd)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void BM_ArgminPairTier(benchmark::State& state,
                       const simd::detail::KernelTable* table) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ArgminRows rows = make_argmin_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->argmin_u64_pair(
        rows.primary[r].data(), rows.secondary[r].data(), n));
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

std::vector<std::uint64_t> make_keys(std::size_t n) {
  Xoshiro256 rng(99 + n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = rng.next();
  return keys;
}

void BM_FindKeyScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> keys = make_keys(n);
  // Worst case (and BMA's common case): needle absent — full row walk.
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::scalar::find_u64(keys.data(), n, 1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindKeyScalar)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FindKeySimd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint64_t> keys = make_keys(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::find_u64(keys.data(), n, 1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindKeySimd)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "simd_isa", rdcn::simd::isa_name(rdcn::simd::active_isa()));
  for (const rdcn::simd::Isa isa :
       {rdcn::simd::Isa::kAvx2, rdcn::simd::Isa::kAvx512}) {
    const auto* table = rdcn::simd::detail::kernel_table(isa);
    if (table == nullptr) continue;
    const std::string name =
        std::string("BM_ArgminPairTier/") + rdcn::simd::isa_name(isa);
    benchmark::RegisterBenchmark(name.c_str(), BM_ArgminPairTier, table)
        ->Arg(8)
        ->Arg(12)
        ->Arg(16)
        ->Arg(64)
        ->Arg(256);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
