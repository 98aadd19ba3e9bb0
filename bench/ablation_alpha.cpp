// Ablation: reconfiguration-cost sensitivity.  γ = 1 + ℓmax/α governs the
// reduction overhead (Theorem 1); the paper remarks that in practice α is
// orders of magnitude above ℓmax so γ ≈ 1.  This bench sweeps α across
// four decades and reports cost composition and reconfiguration rates.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 150'000);
  const std::size_t racks = 100, b = 12;
  const net::Topology topo = net::make_fat_tree(racks);

  Xoshiro256 rng(10);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, racks, num_requests, rng));

  std::printf("== ablation: alpha sweep (R-BMA, b=%zu, lmax=%u) ==\n", b,
              topo.distances.max_distance());
  std::printf("%8s %8s %14s %14s %14s %12s\n", "alpha", "gamma", "routing",
              "reconfig", "total", "reconf_ops");
  for (std::uint64_t alpha : {2ull, 8ull, 32ull, 128ull, 512ull, 2048ull}) {
    core::Instance inst;
    inst.distances = &topo.distances;
    inst.b = b;
    inst.alpha = alpha;
    double routing = 0, reconfig = 0, ops = 0;
    const int seeds = 3;
    for (int s = 1; s <= seeds; ++s) {
      core::RBma alg(inst, {.seed = static_cast<std::uint64_t>(s)});
      for (const core::Request& r : t) alg.serve(r);
      routing += static_cast<double>(alg.costs().routing_cost);
      reconfig += static_cast<double>(alg.costs().reconfig_cost);
      ops += static_cast<double>(alg.costs().edge_adds +
                                 alg.costs().edge_removals);
    }
    std::printf("%8llu %8.3f %14.0f %14.0f %14.0f %12.0f\n",
                static_cast<unsigned long long>(alpha), inst.gamma(),
                routing / seeds, reconfig / seeds,
                (routing + reconfig) / seeds, ops / seeds);
  }
  std::printf(
      "shape: reconfiguration ops fall ~linearly in alpha (the ke = "
      "ceil(a/l) cadence);\n"
      "       total cost is U-shaped — thrash at tiny alpha, sluggish "
      "adaptation at huge alpha.\n");
  return 0;
}
