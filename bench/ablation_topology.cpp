// Ablation: fixed-network topology sensitivity (§3.1: "our experiments
// only consider the fat-tree topology because of its wide adoption ...
// network topologies with shorter paths would result in lower costs").
// Same workload over fat-tree, leaf-spine, expander, torus, star, ring.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 100'000);
  const std::size_t racks = 64, b = 8;

  Xoshiro256 topo_rng(11);
  std::vector<net::Topology> topologies;
  topologies.push_back(net::make_fat_tree(racks));
  topologies.push_back(net::make_leaf_spine(racks, 8));
  topologies.push_back(net::make_random_regular(racks, 4, topo_rng));
  topologies.push_back(net::make_torus(8, 8));
  topologies.push_back(net::make_star(racks));
  topologies.push_back(net::make_ring(racks));

  Xoshiro256 rng(12);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, racks, num_requests, rng));

  std::printf("== ablation: topology sensitivity (R-BMA, b=%zu) ==\n", b);
  std::printf("%20s %10s %14s %14s %12s\n", "topology", "mean_dist",
              "oblivious", "r_bma", "reduction%");
  for (const net::Topology& topo : topologies) {
    core::Instance inst;
    inst.distances = &topo.distances;
    inst.b = b;
    inst.alpha = 60;

    core::Oblivious obl(inst);
    for (const core::Request& r : t) obl.serve(r);

    double rbma = 0.0;
    const int seeds = 3;
    for (int s = 1; s <= seeds; ++s) {
      core::RBma alg(inst, {.seed = static_cast<std::uint64_t>(s)});
      for (const core::Request& r : t) alg.serve(r);
      rbma += static_cast<double>(alg.costs().routing_cost);
    }
    rbma /= seeds;
    const auto obl_cost = static_cast<double>(obl.costs().routing_cost);
    std::printf("%20s %10.2f %14.0f %14.0f %12.1f\n", topo.name.c_str(),
                topo.distances.mean_distance(), obl_cost, rbma,
                100.0 * (1.0 - rbma / obl_cost));
  }
  std::printf(
      "shape: longer fixed-network paths (ring) leave more for "
      "reconfigurable links\n"
      "       to save; short-diameter fabrics (leaf-spine) cap the "
      "achievable reduction.\n");
  return 0;
}
