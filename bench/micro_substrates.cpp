// Google-benchmark micro measurements of the substrate layers: the paging
// membership set and engines, the b-matching structure, topology/APSP
// construction, trace generation and the samplers.
#include <benchmark/benchmark.h>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

// Insert-or-erase churn on the paging membership set.
void BM_FlatSetChurn(benchmark::State& state) {
  Xoshiro256 rng(3);
  FlatSet set;
  for (auto _ : state) {
    const std::uint64_t k = 1 + rng.next_below(4096);
    if (!set.insert(k)) set.erase(k);
  }
}
BENCHMARK(BM_FlatSetChurn);

void BM_PagingEngineRequest(benchmark::State& state) {
  const auto kind = static_cast<paging::EngineKind>(state.range(0));
  auto engine = paging::make_engine(kind, 18, Xoshiro256(4));
  Xoshiro256 rng(5);
  std::vector<paging::Key> evicted;
  for (auto _ : state) {
    evicted.clear();
    engine->request(1 + rng.next_below(64), evicted);
  }
  state.SetLabel(paging::engine_name(kind));
}
BENCHMARK(BM_PagingEngineRequest)
    ->Arg(static_cast<int>(paging::EngineKind::kMarking))
    ->Arg(static_cast<int>(paging::EngineKind::kLru))
    ->Arg(static_cast<int>(paging::EngineKind::kFifo))
    ->Arg(static_cast<int>(paging::EngineKind::kClock))
    ->Arg(static_cast<int>(paging::EngineKind::kRandom));

void BM_BMatchingChurn(benchmark::State& state) {
  const std::size_t n = 100, b = 18;
  core::BMatching m(n, b);
  Xoshiro256 rng(6);
  for (auto _ : state) {
    const auto u = static_cast<core::Rack>(rng.next_below(n));
    auto v = static_cast<core::Rack>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (m.has(u, v)) {
      m.remove(u, v);
    } else if (!m.full(u) && !m.full(v)) {
      m.add(u, v);
    }
  }
}
BENCHMARK(BM_BMatchingChurn);

void BM_FatTreeConstruction(benchmark::State& state) {
  const auto racks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const net::Topology t = net::make_fat_tree(racks);
    benchmark::DoNotOptimize(t.distances.max_distance());
  }
}
BENCHMARK(BM_FatTreeConstruction)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_TraceGenerationFacebook(benchmark::State& state) {
  for (auto _ : state) {
    const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, 100, 50'000, Xoshiro256(7)));
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_TraceGenerationFacebook)->Unit(benchmark::kMillisecond);

void BM_TraceGenerationMicrosoft(benchmark::State& state) {
  for (auto _ : state) {
    const trace::Trace t = trace::materialize(
        *trace::stream_microsoft_like(50, 50'000, {}, Xoshiro256(8)));
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
}
BENCHMARK(BM_TraceGenerationMicrosoft)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(4950, 1.2);
  Xoshiro256 rng(9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_AliasSample(benchmark::State& state) {
  std::vector<double> w(4950);
  Xoshiro256 init(10);
  for (auto& x : w) x = init.next_double() + 1e-9;
  const AliasSampler alias(w);
  Xoshiro256 rng(11);
  for (auto _ : state) benchmark::DoNotOptimize(alias(rng));
}
BENCHMARK(BM_AliasSample);

}  // namespace

BENCHMARK_MAIN();
