// Example: bring your own network and your own trace.
//
// Shows the two extension points a downstream user needs:
//   1. building a custom fixed network from an arbitrary graph (here: a
//      two-tier leaf-spine with a deliberately slow "backup" path), and
//   2. importing a request trace from CSV (the format real traces arrive
//      in) and replaying it through the library.
//
//   $ ./examples/custom_topology_and_trace
#include <iostream>
#include <sstream>

#include "rdcn.hpp"

int main() {
  using namespace rdcn;

  // --- 1. custom fixed network -------------------------------------------
  // Eight racks; racks 0-3 hang off spine A, racks 4-7 off spine B, and the
  // two spines are joined by a 3-hop chain of patch panels: cross-side
  // traffic pays 6 hops, same-side pays 2.
  net::Graph g(8 + 2 + 2);  // racks, 2 spines, 2 chain vertices
  const net::NodeId spine_a = 8, spine_b = 9, mid1 = 10, mid2 = 11;
  for (net::NodeId r = 0; r < 4; ++r) g.add_edge(r, spine_a);
  for (net::NodeId r = 4; r < 8; ++r) g.add_edge(r, spine_b);
  g.add_edge(spine_a, mid1);
  g.add_edge(mid1, mid2);
  g.add_edge(mid2, spine_b);
  g.finalize();

  std::vector<net::NodeId> racks;
  for (net::NodeId r = 0; r < 8; ++r) racks.push_back(r);
  const net::DistanceMatrix distances(g, racks);
  std::cout << "custom network: same-side distance = " << distances(0, 1)
            << ", cross-side distance = " << distances(0, 7) << "\n\n";

  // --- 2. trace from CSV --------------------------------------------------
  // A synthetic "imported" trace: heavy cross-side pair (0,7) plus noise.
  std::stringstream csv;
  csv << "# racks=8 name=imported_example\n";
  Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) {
    if (rng.next_bool(0.6)) {
      csv << "0,7\n";  // the pair that hurts most on the fixed network
    } else {
      const auto u = static_cast<unsigned>(rng.next_below(8));
      auto v = static_cast<unsigned>(rng.next_below(7));
      if (v >= u) ++v;
      csv << u << "," << v << "\n";
    }
  }
  const trace::Trace t = trace::read_csv(csv);
  std::cout << "imported " << t.size() << " requests ("
            << trace::compute_stats(t).distinct_pairs
            << " distinct pairs) from CSV\n\n";

  // --- run ---------------------------------------------------------------
  core::Instance inst;
  inst.distances = &distances;
  inst.b = 2;
  inst.alpha = 40;

  // Algorithm specs resolve through the registry even against a custom
  // network — parameters ride along in the spec string.
  for (const char* name : {"r_bma:engine=marking", "bma", "so_bma",
                           "oblivious"}) {
    auto matcher = scenario::make_algorithm(name, inst, &t, /*seed=*/1);
    const sim::RunResult r = sim::run_to_completion(*matcher, t);
    std::cout << "  " << name << ": routing="
              << r.final().routing_cost
              << " reconfig=" << r.final().reconfig_cost
              << " matched {0,7}=" << std::boolalpha
              << matcher->matching().has(0, 7) << "\n";
  }
  std::cout << "\nEvery demand-aware algorithm discovers the hot cross-side\n"
               "pair and shortcuts its 6-hop path to a single optical hop.\n";
  return 0;
}
