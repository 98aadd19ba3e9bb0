// rdcn: fixed-network topology builders.
//
// The paper evaluates on a fat-tree (the "typical fat-tree based datacenter
// topology", §3.1, with 100 racks for the Facebook clusters and 50 for the
// Microsoft cluster) and uses a star graph in the lower-bound construction
// (§2.4).  The remaining builders cover the "any other static network"
// remark in §3.1 and feed the topology-sensitivity ablation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/distance_matrix.hpp"
#include "net/graph.hpp"

namespace rdcn::net {

/// A built topology: the full switch-level graph plus the mapping from
/// logical rack ids (what the matching layer sees) to graph vertices, and
/// the precomputed rack-to-rack distance matrix.
struct Topology {
  std::string name;
  Graph graph;
  std::vector<NodeId> racks;
  DistanceMatrix distances;

  std::size_t num_racks() const noexcept { return racks.size(); }
};

/// k-ary fat-tree (Al-Fares et al.): k pods, each with k/2 edge and k/2
/// aggregation switches, and (k/2)^2 core switches.  Racks are the edge
/// (ToR) switches.  If `num_racks` is smaller than the k^2/2 available edge
/// switches, the first `num_racks` (pod-major order) are used; k is chosen
/// as the smallest even k with k^2/2 >= num_racks.
///
/// Rack-to-rack hop counts: 2 within a pod (via aggregation), 4 across pods
/// (via core) — matching the cost structure of §3.1.
Topology make_fat_tree(std::size_t num_racks);

/// Explicit-k variant (k even, >= 2) exposing the full k^2/2 racks.
Topology make_fat_tree_k(std::size_t k);

/// Three-stage folded Clos: racks at the leaves, `num_spines` spine
/// switches, every leaf connected to every spine (leaf-spine fabric).
/// All distinct racks are 2 hops apart.
Topology make_leaf_spine(std::size_t num_racks, std::size_t num_spines);

/// Star: one hub vertex, racks at the points (the Lemma 1 construction:
/// n+1 vertices, every rack 2 hops from every other, 1 from the hub).
/// Racks are the points; the hub is not a rack.
Topology make_star(std::size_t num_racks);

/// Path graph over racks (worst-case diameter; stresses large ℓe).
Topology make_line(std::size_t num_racks);

/// Cycle over racks.
Topology make_ring(std::size_t num_racks);

/// 2-D torus, rows x cols racks.
Topology make_torus(std::size_t rows, std::size_t cols);

/// Hypercube with 2^dim racks.
Topology make_hypercube(std::size_t dim);

/// Random simple d-regular graph (an expander with high probability), built
/// the Jellyfish way: random links between racks with free ports, then
/// edge swaps until every port is used; retries until connected.
Topology make_random_regular(std::size_t num_racks, std::size_t degree,
                             Xoshiro256& rng);

/// Complete graph over racks (every ℓe = 1: the uniform case of §2).
Topology make_complete(std::size_t num_racks);

}  // namespace rdcn::net
