// Google-benchmark micro measurements: per-request latency of each
// algorithm as a function of the cache size b.  This is the mechanism
// behind Figs 1b-4b: BMA's eviction scan is Θ(b) while R-BMA's paging step
// is O(1) amortized, so BMA's per-request cost grows with b.  Each
// iteration serves one sim::kServeChunk span through serve_batch, the loop
// the simulator runs; items are requests.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

const net::Topology& shared_topology() {
  static const net::Topology topo = net::make_fat_tree(100);
  return topo;
}

const trace::Trace& shared_trace() {
  static const trace::Trace t = [] {
    return trace::materialize(*trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, 100, 200'000, Xoshiro256(77)));
  }();
  return t;
}

/// The shared trace as one request array, so chunks are plain spans.
const std::vector<core::Request>& shared_requests() {
  static const std::vector<core::Request> requests = [] {
    const trace::Trace& t = shared_trace();
    std::vector<core::Request> all(t.size());
    t.gather(0, t.size(), all.data());
    return all;
  }();
  return requests;
}

core::Instance instance_with_b(std::size_t b) {
  core::Instance inst;
  inst.distances = &shared_topology().distances;
  inst.b = b;
  inst.alpha = 60;
  return inst;
}

/// Serves the shared trace in kServeChunk spans, wrapping at its end.
void serve_chunks(benchmark::State& state, core::OnlineBMatcher& alg) {
  const std::vector<core::Request>& all = shared_requests();
  std::size_t i = 0;
  std::int64_t served = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(sim::kServeChunk, all.size() - i);
    alg.serve_batch({all.data() + i, n});
    served += static_cast<std::int64_t>(n);
    i += n;
    if (i == all.size()) i = 0;
  }
  state.SetItemsProcessed(served);
}

void BM_RBmaServe(benchmark::State& state) {
  core::RBma alg(instance_with_b(static_cast<std::size_t>(state.range(0))),
                 {.seed = 5});
  serve_chunks(state, alg);
}
BENCHMARK(BM_RBmaServe)->Arg(3)->Arg(6)->Arg(12)->Arg(18)->Arg(36);

void BM_BmaServe(benchmark::State& state) {
  core::Bma alg(instance_with_b(static_cast<std::size_t>(state.range(0))));
  serve_chunks(state, alg);
}
BENCHMARK(BM_BmaServe)->Arg(3)->Arg(6)->Arg(12)->Arg(18)->Arg(36);

void BM_GreedyServe(benchmark::State& state) {
  core::GreedyOnline alg(instance_with_b(12));
  serve_chunks(state, alg);
}
BENCHMARK(BM_GreedyServe);

void BM_ObliviousServe(benchmark::State& state) {
  core::Oblivious alg(instance_with_b(12));
  serve_chunks(state, alg);
}
BENCHMARK(BM_ObliviousServe);

void BM_SoBmaConstruction(benchmark::State& state) {
  const trace::Trace& t = shared_trace();
  const core::Instance inst = instance_with_b(12);
  for (auto _ : state) {
    core::SoBma so(inst, t);
    benchmark::DoNotOptimize(so.matching().size());
  }
}
BENCHMARK(BM_SoBmaConstruction)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
