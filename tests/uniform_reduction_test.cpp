// Tests for the Theorem 1 combinator (tests/uniform_reduction.hpp): the
// fused R-BMA must be behaviourally identical to
// UniformReduction(uniform R-BMA), and the Theorem 1 cost inequality must
// hold run-by-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"
#include "uniform_reduction.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(UniformReduction, FusedRBmaEqualsComposedRBma) {
  // The fused implementation (R-BMA) and the generic composition
  // (UniformReduction over a uniform-case R-BMA) must produce identical
  // matchings and ledgers when seeded identically: the uniform inner
  // R-BMA has ke = 1, so its paging engines see exactly the special
  // stream — the same inputs as the fused engines.  The fused R-BMA reads
  // ke = ⌈α/ℓ⌉ from a per-distance table while the composition divides
  // per request, so the grid covers every shape of that table: ke = 1
  // (α = 1, or ℓ ≥ α), ke = α (complete, ℓ = 1), a remainder (α = 7 over
  // fat_tree's ℓ ∈ {2, 4}) and ℓ > α (ring's ℓ up to 10 against α = 7).
  const std::size_t racks = 20;
  const net::Topology topologies[] = {net::make_fat_tree(racks),
                                      net::make_ring(racks),
                                      net::make_complete(racks)};
  Xoshiro256 rng(31);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(racks, 30000, 1.1, rng));
  const std::uint64_t seed = 7;

  bool saw_ke_one = false;
  bool saw_remainder = false;
  bool saw_beyond_alpha = false;
  for (const net::Topology& topo : topologies) {
    for (const std::uint64_t alpha : {1u, 7u, 12u, 60u, 2048u}) {
      SCOPED_TRACE(topo.name + " alpha=" + std::to_string(alpha));
      for (Rack u = 0; u < racks; ++u) {
        for (Rack v = u + 1; v < racks; ++v) {
          const std::uint64_t d = topo.distances(u, v);
          saw_ke_one |= (alpha + d - 1) / d == 1;
          saw_remainder |= alpha % d != 0;
          saw_beyond_alpha |= d > alpha;
        }
      }
      const Instance inst = make_instance(topo.distances, 3, alpha);

      RBma fused(inst, {.seed = seed});
      UniformReduction composed(inst, [&](const Instance& uniform) {
        return std::make_unique<RBma>(uniform, RBmaOptions{.seed = seed});
      });

      for (const Request& r : t) {
        fused.serve(r);
        composed.serve(r);
      }
      EXPECT_EQ(fused.special_requests(), composed.special_requests());
      EXPECT_EQ(fused.costs().routing_cost, composed.costs().routing_cost);
      EXPECT_EQ(fused.costs().direct_serves, composed.costs().direct_serves);
      EXPECT_EQ(fused.costs().edge_adds, composed.costs().edge_adds);
      EXPECT_EQ(fused.costs().edge_removals, composed.costs().edge_removals);
      // Identical final matchings.
      auto a = fused.matching().edge_keys();
      auto b = composed.matching().edge_keys();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b);
    }
  }
  EXPECT_TRUE(saw_ke_one);
  EXPECT_TRUE(saw_remainder);
  EXPECT_TRUE(saw_beyond_alpha);
}

TEST(UniformReduction, TheoremOneInequalityHolds) {
  // Alg(I) <= 2γα·Alg1(I1) + |V²|·γ·α for every run (the paper's first
  // inequality in the proof of Theorem 1).
  const net::Topology topo = net::make_fat_tree(24);
  const std::size_t n = topo.num_racks();
  for (std::uint64_t alpha : {4ull, 16ull, 64ull}) {
    Xoshiro256 rng(32 + alpha);
    const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, n, 30000, rng));
    const Instance inst = make_instance(topo.distances, 4, alpha);

    UniformReduction alg(inst, [](const Instance& uniform) {
      return std::make_unique<RBma>(uniform, RBmaOptions{.seed = 5});
    });
    for (const Request& r : t) alg.serve(r);

    const double gamma = inst.gamma();
    const double lhs = static_cast<double>(alg.costs().total_cost());
    const double inner_cost =
        static_cast<double>(alg.inner().costs().total_cost());
    const double beta = static_cast<double>(n) * static_cast<double>(n) *
                        gamma * static_cast<double>(alpha);
    EXPECT_LE(lhs, 2.0 * gamma * static_cast<double>(alpha) * inner_cost +
                       beta)
        << "alpha=" << alpha;
  }
}

TEST(UniformReduction, WorksWithDeterministicInner) {
  // The combinator is algorithm-agnostic: wrap the deterministic BMA.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(33);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 15000, 1.0, rng));
  const Instance inst = make_instance(topo.distances, 2, 10);

  UniformReduction alg(inst, [](const Instance& uniform) {
    return std::make_unique<Bma>(uniform);
  });
  for (const Request& r : t) alg.serve(r);
  EXPECT_TRUE(alg.matching().check_invariants());
  EXPECT_GT(alg.costs().direct_serves, 0u);
  EXPECT_EQ(alg.name(), "uniform_reduction[bma]");
}

TEST(UniformReduction, MirrorsInnerMatchingExactly) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(34);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 10000, 1.2, rng));
  UniformReduction alg(make_instance(topo.distances, 2, 8),
                       [](const Instance& uniform) {
                         return std::make_unique<RBma>(
                             uniform, RBmaOptions{.seed = 11});
                       });
  for (std::size_t i = 0; i < t.size(); ++i) {
    alg.serve(t[i]);
    if (i % 997 == 0) {
      auto mine = alg.matching().edge_keys();
      auto inner = alg.inner().matching().edge_keys();
      std::sort(mine.begin(), mine.end());
      std::sort(inner.begin(), inner.end());
      ASSERT_EQ(mine, inner) << "at request " << i;
    }
  }
}

}  // namespace
