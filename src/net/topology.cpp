#include "net/topology.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/param_map.hpp"

namespace rdcn::net {

namespace {

/// Throws SpecError unless `ok`: the parameters of topology `name` are
/// outside their valid range, as `what` describes.
void require(bool ok, const char* name, const std::string& what) {
  if (!ok) throw SpecError("topology '" + std::string(name) + "': " + what);
}

Topology finish(std::string name, Graph g, std::vector<NodeId> racks) {
  g.finalize();
  RDCN_ASSERT_MSG(g.connected(), "topology must be connected");
  Topology t;
  t.name = std::move(name);
  t.distances = DistanceMatrix(g, racks);
  t.graph = std::move(g);
  t.racks = std::move(racks);
  return t;
}

/// The k-ary fat-tree's switch graph and its k²/2 racks (edge switches,
/// pod-major), before the distance matrix is built.
struct FatTree {
  Graph graph;
  std::vector<NodeId> racks;
};

FatTree fat_tree_graph(std::size_t k) {
  require(k >= 2 && k % 2 == 0, "fat_tree",
          "parameter 'k' must be even and >= 2, got " + std::to_string(k));
  const std::size_t half = k / 2;
  const std::size_t num_pods = k;
  const std::size_t edge_per_pod = half;
  const std::size_t agg_per_pod = half;
  const std::size_t num_core = half * half;

  Graph g(num_pods * (edge_per_pod + agg_per_pod) + num_core);
  // Vertex layout: per pod [edge switches | aggregation switches], then core.
  auto edge_sw = [&](std::size_t pod, std::size_t i) {
    return static_cast<NodeId>(pod * (edge_per_pod + agg_per_pod) + i);
  };
  auto agg_sw = [&](std::size_t pod, std::size_t i) {
    return static_cast<NodeId>(pod * (edge_per_pod + agg_per_pod) +
                               edge_per_pod + i);
  };
  auto core_sw = [&](std::size_t i) {
    return static_cast<NodeId>(num_pods * (edge_per_pod + agg_per_pod) + i);
  };

  for (std::size_t pod = 0; pod < num_pods; ++pod) {
    // Full bipartite edge<->aggregation inside the pod.
    for (std::size_t e = 0; e < edge_per_pod; ++e)
      for (std::size_t a = 0; a < agg_per_pod; ++a)
        g.add_edge(edge_sw(pod, e), agg_sw(pod, a));
    // Aggregation switch a connects to core group a (half cores each).
    for (std::size_t a = 0; a < agg_per_pod; ++a)
      for (std::size_t c = 0; c < half; ++c)
        g.add_edge(agg_sw(pod, a), core_sw(a * half + c));
  }

  std::vector<NodeId> racks;
  racks.reserve(num_pods * edge_per_pod);
  for (std::size_t pod = 0; pod < num_pods; ++pod)
    for (std::size_t e = 0; e < edge_per_pod; ++e)
      racks.push_back(edge_sw(pod, e));

  return {std::move(g), std::move(racks)};
}

}  // namespace

Topology make_fat_tree_k(std::size_t k) {
  FatTree t = fat_tree_graph(k);
  return finish("fat_tree_k" + std::to_string(k), std::move(t.graph),
                std::move(t.racks));
}

Topology make_fat_tree(std::size_t num_racks) {
  require(num_racks >= 2, "fat_tree", "needs at least 2 racks");
  std::size_t k = 2;
  while (k * k / 2 < num_racks) k += 2;
  FatTree t = fat_tree_graph(k);
  t.racks.resize(num_racks);
  return finish("fat_tree_n" + std::to_string(num_racks), std::move(t.graph),
                std::move(t.racks));
}

Topology make_leaf_spine(std::size_t num_racks, std::size_t num_spines) {
  require(num_racks >= 2, "leaf_spine", "needs at least 2 racks");
  require(num_spines >= 1, "leaf_spine",
          "parameter 'spines' must be >= 1, got 0");
  Graph g(num_racks + num_spines);
  std::vector<NodeId> racks(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i) {
    racks[i] = static_cast<NodeId>(i);
    for (std::size_t s = 0; s < num_spines; ++s)
      g.add_edge(static_cast<NodeId>(i),
                 static_cast<NodeId>(num_racks + s));
  }
  return finish("leaf_spine", std::move(g), std::move(racks));
}

Topology make_star(std::size_t num_racks) {
  require(num_racks >= 2, "star", "needs at least 2 racks");
  Graph g(num_racks + 1);
  const NodeId hub = static_cast<NodeId>(num_racks);
  std::vector<NodeId> racks(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i) {
    racks[i] = static_cast<NodeId>(i);
    g.add_edge(static_cast<NodeId>(i), hub);
  }
  return finish("star", std::move(g), std::move(racks));
}

Topology make_line(std::size_t num_racks) {
  require(num_racks >= 2, "line", "needs at least 2 racks");
  Graph g(num_racks);
  std::vector<NodeId> racks(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i)
    racks[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i + 1 < num_racks; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return finish("line", std::move(g), std::move(racks));
}

Topology make_ring(std::size_t num_racks) {
  require(num_racks >= 3, "ring", "needs at least 3 racks");
  Graph g(num_racks);
  std::vector<NodeId> racks(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i)
    racks[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < num_racks; ++i)
    g.add_edge(static_cast<NodeId>(i),
               static_cast<NodeId>((i + 1) % num_racks));
  return finish("ring", std::move(g), std::move(racks));
}

Topology make_torus(std::size_t rows, std::size_t cols) {
  require(rows >= 3 && cols >= 3, "torus",
          "parameters 'rows' and 'cols' must both be >= 3, got " +
              std::to_string(rows) + "x" + std::to_string(cols));
  Graph g(rows * cols);
  std::vector<NodeId> racks(rows * cols);
  auto id = [&](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      racks[r * cols + c] = id(r, c);
      g.add_edge(id(r, c), id(r, (c + 1) % cols));
      g.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return finish("torus", std::move(g), std::move(racks));
}

Topology make_hypercube(std::size_t dim) {
  require(dim >= 1 && dim <= 20, "hypercube",
          "parameter 'dim' must be in [1, 20], got " + std::to_string(dim));
  const std::size_t n = std::size_t{1} << dim;
  Graph g(n);
  std::vector<NodeId> racks(n);
  for (std::size_t i = 0; i < n; ++i) {
    racks[i] = static_cast<NodeId>(i);
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t j = i ^ (std::size_t{1} << d);
      if (i < j) g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return finish("hypercube_d" + std::to_string(dim), std::move(g),
                std::move(racks));
}

Topology make_random_regular(std::size_t num_racks, std::size_t degree,
                             Xoshiro256& rng) {
  require(degree >= 1 && degree < num_racks, "expander",
          "parameter 'degree' must be in [1, racks - 1] on " +
              std::to_string(num_racks) + " racks, got " +
              std::to_string(degree));
  require((num_racks * degree) % 2 == 0, "expander",
          "racks x degree must be even for a regular graph, got " +
              std::to_string(num_racks) + " x " + std::to_string(degree));
  // Stub matching with rejection of self-loops/multi-edges; retried until
  // simple and connected (succeeds quickly for the sparse cases we use).
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(num_racks * degree);
    for (std::size_t v = 0; v < num_racks; ++v)
      for (std::size_t d = 0; d < degree; ++d)
        stubs.push_back(static_cast<NodeId>(v));
    shuffle(stubs.begin(), stubs.end(), rng);

    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(stubs.size() / 2);
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size() && ok; i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) ok = false;
      if (u > v) std::swap(u, v);
      edges.emplace_back(u, v);
    }
    if (!ok) continue;
    std::sort(edges.begin(), edges.end());
    if (std::adjacent_find(edges.begin(), edges.end()) != edges.end())
      continue;

    Graph g(num_racks);
    for (const auto& [u, v] : edges) g.add_edge(u, v);
    g.finalize();
    if (!g.connected()) continue;

    std::vector<NodeId> racks(num_racks);
    for (std::size_t i = 0; i < num_racks; ++i)
      racks[i] = static_cast<NodeId>(i);
    Topology t;
    t.name = "random_regular_d" + std::to_string(degree);
    t.distances = DistanceMatrix(g, racks);
    t.graph = std::move(g);
    t.racks = std::move(racks);
    return t;
  }
  throw SpecError("topology 'expander': no connected " +
                  std::to_string(degree) + "-regular graph on " +
                  std::to_string(num_racks) +
                  " racks found in 200 attempts; use a larger degree");
}

Topology make_complete(std::size_t num_racks) {
  require(num_racks >= 2, "complete", "needs at least 2 racks");
  Graph g(num_racks);
  std::vector<NodeId> racks(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i)
    racks[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < num_racks; ++i)
    for (std::size_t j = i + 1; j < num_racks; ++j)
      g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
  return finish("complete", std::move(g), std::move(racks));
}

}  // namespace rdcn::net
