// Ablation: lazy vs eager matching eviction in R-BMA (footnote 2 of the
// paper).  Lazy keeps evicted-but-still-useful optical links alive until a
// rack actually needs the degree slot, saving both reconfiguration cost
// and routing cost from resurrected edges.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 150'000);
  const std::size_t racks = 100;
  const net::Topology topo = net::make_fat_tree(racks);

  Xoshiro256 rng(7);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, racks, num_requests, rng));

  std::printf("== ablation: lazy vs eager eviction in R-BMA ==\n");
  std::printf("%4s %8s %14s %14s %10s %10s\n", "b", "mode", "routing",
              "reconfig", "adds", "removals");
  for (std::size_t b : {6ul, 12ul, 18ul}) {
    for (bool lazy : {true, false}) {
      core::Instance inst;
      inst.distances = &topo.distances;
      inst.b = b;
      inst.alpha = 60;
      double routing = 0, reconfig = 0, adds = 0, removals = 0;
      const int seeds = 5;
      for (int s = 1; s <= seeds; ++s) {
        core::RBma alg(inst, {.lazy_eviction = lazy,
                              .seed = static_cast<std::uint64_t>(s)});
        for (const core::Request& r : t) alg.serve(r);
        routing += static_cast<double>(alg.costs().routing_cost);
        reconfig += static_cast<double>(alg.costs().reconfig_cost);
        adds += static_cast<double>(alg.costs().edge_adds);
        removals += static_cast<double>(alg.costs().edge_removals);
      }
      std::printf("%4zu %8s %14.0f %14.0f %10.0f %10.0f\n", b,
                  lazy ? "lazy" : "eager", routing / seeds, reconfig / seeds,
                  adds / seeds, removals / seeds);
    }
  }
  std::printf(
      "shape: lazy mode performs fewer removals (and hence fewer re-adds) "
      "at equal\n"
      "       or better routing cost — the paper's experimental default.\n");
  return 0;
}
