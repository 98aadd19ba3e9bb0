// Micro-benchmarks for the hot-kernel library (common/simd.hpp): the
// scalar reference vs the runtime-dispatched SIMD variant of each kernel,
// at the row lengths the serve pipeline actually sees — b ∈ {4, 8, 12,
// 16, 64, 256} for the ranked rows' one-pass scan (key find plus least
// rank; 12 is rdcn_sim's default b) and b ∈ {4, 16, 64, 256} for the key
// find alone.
//
// The scalar side calls simd::scalar::* directly (not the dispatcher with
// forcing flipped), so one run reports both columns without mutating
// global dispatch state.  Note the dispatched wrappers keep rows of n <= 4
// on an inline scalar fast path by design — at b=4 the two columns are
// expected to tie.  The JSON context records the ISA the dispatched
// column ran at as `simd_isa`.
//
// BM_FindArgminTier/avx512/<n> calls the AVX-512 row scan through its
// kernel table at every length, including those the dispatcher keeps
// scalar, so the rows show where the vector body starts to pay.
//
// Build/run: cmake --build build --target bench_micro_kernels &&
//            build/bench/micro_kernels
// The committed BENCH_kernels.json comes from the command in
// bench/README.md (10 interleaved repetitions, median and cv per row).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

using namespace rdcn;

/// One set of fuzzed rows per benchmark repetition pool: 64 rows per
/// length so the kernel does not just replay one branch-predicted row.
struct ScanRows {
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<std::vector<std::uint64_t>> ranks;
};

ScanRows make_scan_rows(std::size_t n) {
  Xoshiro256 rng(77 + n);
  ScanRows rows;
  for (int r = 0; r < 64; ++r) {
    std::vector<std::uint64_t> k(n), q(n);
    for (std::size_t i = 0; i < n; ++i) {
      k[i] = 2 + rng.next_below(1u << 30);  // never the needle 1
      // A rack row's packed (usage, admission tick): usage with heavy
      // ties, distinct-ish ticks.
      q[i] = rng.next_below(4) << 32 | (1 + rng.next_below(1u << 20));
    }
    rows.keys.push_back(std::move(k));
    rows.ranks.push_back(std::move(q));
  }
  return rows;
}

// Every scan looks for the absent key 1 — BMA's common case, a request
// whose pair is not matched — though the pass is full-length either way.
void BM_FindArgminScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ScanRows rows = make_scan_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::scalar::find_argmin_u64(
        rows.keys[r].data(), rows.ranks[r].data(), n, 1));
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindArgminScalar)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void BM_FindArgminSimd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ScanRows rows = make_scan_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::find_argmin_u64(
        rows.keys[r].data(), rows.ranks[r].data(), n, 1));
    r = (r + 1) & 63;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FindArgminSimd)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void BM_FindArgminTier(benchmark::State& state,
                       const simd::detail::KernelTable* table) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ScanRows rows = make_scan_rows(n);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->find_argmin_u64(
        rows.keys[r].data(), rows.ranks[r].data(), n, 1));
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
  // The AVX2 tier's row scan is the scalar reference, so only the AVX-512
  // tier gets rows of its own.
  if (const auto* table =
          rdcn::simd::detail::kernel_table(rdcn::simd::Isa::kAvx512)) {
    benchmark::RegisterBenchmark("BM_FindArgminTier/avx512",
                                 BM_FindArgminTier, table)
        ->Arg(4)
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
