// Ablation: the paging engine inside R-BMA.  Theorem 2 accepts any paging
// algorithm; the competitive constant (and the practical routing cost)
// depends on the engine.  Randomized marking is the theory-backed default;
// LRU/CLOCK are the strongest deterministic heuristics on
// temporally-local traces; flush-when-full shows the failure mode.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 150'000);
  const std::size_t racks = 100, b = 12;
  const net::Topology topo = net::make_fat_tree(racks);

  std::printf("== ablation: paging engine inside R-BMA (b=%zu) ==\n", b);
  std::printf("%18s %14s %14s %14s %12s\n", "engine", "routing", "reconfig",
              "total", "direct_frac");
  for (const char* workload : {"database", "web"}) {
    Xoshiro256 rng(workload[0]);
    const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
        workload[0] == 'd' ? trace::FacebookCluster::kDatabase
                           : trace::FacebookCluster::kWebService,
        racks, num_requests, rng));
    std::printf("-- workload: %s --\n", workload);
    using paging::EngineKind;
    for (const EngineKind engine :
         {EngineKind::kMarking, EngineKind::kLru, EngineKind::kClock,
          EngineKind::kArc, EngineKind::kLfu, EngineKind::kFifo,
          EngineKind::kRandom, EngineKind::kFlushWhenFull}) {
      core::Instance inst;
      inst.distances = &topo.distances;
      inst.b = b;
      inst.alpha = 60;
      double routing = 0, reconfig = 0, direct = 0;
      const int seeds = 3;
      for (int s = 1; s <= seeds; ++s) {
        core::RBmaOptions opts;
        opts.engine = engine;
        opts.seed = static_cast<std::uint64_t>(s);
        core::RBma alg(inst, opts);
        for (const core::Request& r : t) alg.serve(r);
        routing += static_cast<double>(alg.costs().routing_cost);
        reconfig += static_cast<double>(alg.costs().reconfig_cost);
        direct += alg.costs().direct_fraction();
      }
      std::printf("%18s %14.0f %14.0f %14.0f %12.3f\n",
                  paging::engine_name(engine).c_str(),
                  routing / seeds, reconfig / seeds,
                  (routing + reconfig) / seeds, direct / seeds);
    }
  }
  std::printf(
      "shape: marking/lru/clock cluster together; flush_when_full pays a "
      "visible\n"
      "       reconfiguration penalty (mass teardown on every phase "
      "boundary).\n");
  return 0;
}
