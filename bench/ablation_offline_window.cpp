// Ablation: window size of the epoch-based dynamic offline comparator.
//
// W -> trace length recovers SO-BMA (one static matching); tiny W adapts
// per-burst but pays α on every boundary.  The sweet spot depends on the
// workload's temporal structure — bursty Facebook-like traffic rewards
// adaptivity, the i.i.d. Microsoft-like trace does not (its demand is
// stationary, so switching is pure waste).
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace rdcn;

void sweep(const char* label, const trace::Trace& t,
           const net::Topology& topo, std::size_t b) {
  core::Instance inst;
  inst.distances = &topo.distances;
  inst.b = b;
  inst.alpha = 60;

  std::printf("-- %s --\n", label);
  std::printf("%10s %14s %14s %14s %10s\n", "window", "routing", "reconfig",
              "total", "windows");
  for (std::size_t w : {2000ul, 10000ul, 50000ul, 200000ul, 1000000ul}) {
    if (w > 4 * t.size()) continue;
    core::OfflineDynamicOptions opts;
    opts.window = w;
    core::OfflineDynamic alg(inst, t, opts);
    for (const core::Request& r : t) alg.serve(r);
    std::printf("%10zu %14llu %14llu %14llu %10zu\n", w,
                static_cast<unsigned long long>(alg.costs().routing_cost),
                static_cast<unsigned long long>(alg.costs().reconfig_cost),
                static_cast<unsigned long long>(alg.costs().total_cost()),
                alg.num_windows());
  }
  // SO-BMA reference (the W = infinity point): the registry's one-window
  // offline_dynamic.
  const auto so = scenario::make_algorithm("so_bma", inst, &t);
  for (const core::Request& r : t) so->serve(r);
  std::printf("%10s %14llu %14llu %14llu %10d\n\n", "static",
              static_cast<unsigned long long>(so->costs().routing_cost),
              static_cast<unsigned long long>(so->costs().reconfig_cost),
              static_cast<unsigned long long>(so->costs().total_cost()), 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 200'000);

  std::printf("== ablation: offline-dynamic window size ==\n");
  {
    const std::size_t racks = 100;
    const net::Topology topo = net::make_fat_tree(racks);
    Xoshiro256 rng(14);
    const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
        trace::FacebookCluster::kHadoop, racks, num_requests, rng));
    sweep("facebook-hadoop (bursty, drifting)", t, topo, 12);
  }
  {
    const std::size_t racks = 50;
    const net::Topology topo = net::make_fat_tree(racks);
    const trace::Trace t = trace::materialize(*trace::stream_microsoft_like(
        racks, num_requests, {}, Xoshiro256(15)));
    sweep("microsoft (i.i.d., stationary)", t, topo, 9);
  }
  std::printf(
      "shape: on drifting traffic, moderate windows beat the static "
      "matching;\n"
      "       on stationary i.i.d. traffic the static matching is optimal "
      "and\n"
      "       every reconfiguration is wasted cost.\n");
  return 0;
}
