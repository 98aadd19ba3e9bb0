// Executable checks of the Theorem 1 reduction mechanics (RED-1/RED-2 in
// DESIGN.md): the special-request bookkeeping inside R-BMA, and the
// per-interval cost relation the proof charges against.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "trace/stats.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(Reduction, SpecialCountMatchesKePerPair) {
  // For each pair e requested n_e times, the number of special requests is
  // exactly floor(n_e / ke) with ke = ceil(α/ℓe).
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(5);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 20000, 1.1, rng));
  const std::uint64_t alpha = 12;
  RBma alg(make_instance(topo.distances, 3, alpha), {.seed = 2});
  for (const Request& r : t) alg.serve(r);

  std::uint64_t expected_specials = 0;
  for (const auto& [key, count] : trace::pair_counts_sorted(t)) {
    const std::uint64_t d = topo.distances(pair_lo(key), pair_hi(key));
    const std::uint64_t ke = (alpha + d - 1) / d;
    expected_specials += count / ke;
  }
  EXPECT_EQ(alg.special_requests(), expected_specials);
}

TEST(Reduction, UniformInstanceDegeneratesToIdentity) {
  // α = 1: ke = 1 for every pair, so the reduction is the identity and the
  // paging layer sees every request.
  const auto d = net::DistanceMatrix::uniform(8, 1);
  Xoshiro256 rng(6);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(8, 5000, rng));
  RBma alg(make_instance(d, 2, 1), {.seed = 2});
  for (const Request& r : t) alg.serve(r);
  EXPECT_EQ(alg.special_requests(), t.size());
}

TEST(Reduction, RoutingPaidBetweenSpecialsIsBoundedByGammaAlpha) {
  // Proof of Theorem 1: within one interval (between consecutive special
  // requests to a pair), Alg pays at most ke·ℓe < γ·α in routing for that
  // pair.  We verify the arithmetic bound for every pair in a topology.
  const net::Topology topo = net::make_fat_tree(24);
  const std::uint64_t alpha = 10;
  Instance inst = make_instance(topo.distances, 2, alpha);
  const double gamma_alpha = inst.gamma() * static_cast<double>(alpha);
  const auto n = static_cast<Rack>(topo.num_racks());
  for (Rack u = 0; u < n; ++u) {
    for (Rack v = u + 1; v < n; ++v) {
      const std::uint64_t d = topo.distances(u, v);
      const std::uint64_t ke = (alpha + d - 1) / d;
      EXPECT_LT(static_cast<double>(ke * d), gamma_alpha + 1e-9)
          << "pair " << u << "," << v;
    }
  }
}

TEST(Reduction, ReconfigurationCostProportionalToSpecials) {
  // Every special request triggers at most a bounded number of matching
  // operations (1 add + at most 2 prunes under lazy eviction; adds+removals
  // <= 3 per special).  This is what makes inequality 1 of Theorem 1 sum.
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(7);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 30000, 1.2, rng));
  RBma alg(make_instance(topo.distances, 3, 15), {.seed = 3});
  for (const Request& r : t) alg.serve(r);
  const std::uint64_t ops =
      alg.costs().edge_adds + alg.costs().edge_removals;
  EXPECT_LE(ops, 3 * alg.special_requests());
  // And removals never exceed additions (an edge must be added to be
  // removed) — the charging step at the end of Theorem 2's proof.
  EXPECT_LE(alg.costs().edge_removals, alg.costs().edge_adds);
}

TEST(Reduction, LargerAlphaMeansFewerSpecialsAndReconfigs) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(8);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 30000, 1.2, rng));
  std::uint64_t prev_specials = ~0ull;
  for (std::uint64_t alpha : {2ull, 8ull, 32ull, 128ull}) {
    RBma alg(make_instance(topo.distances, 3, alpha), {.seed = 4});
    for (const Request& r : t) alg.serve(r);
    EXPECT_LE(alg.special_requests(), prev_specials);
    prev_specials = alg.special_requests();
  }
}

TEST(Reduction, GammaCloseToOneWhenAlphaDominates) {
  // §1.2: "in all practical applications α is by several orders of
  // magnitude greater than ℓmax, and thus 1 + ℓmax/α is close to 1."
  const net::Topology topo = net::make_fat_tree(100);
  Instance inst = make_instance(topo.distances, 18, 10000);
  EXPECT_LT(inst.gamma(), 1.001);
  EXPECT_EQ(topo.distances.max_distance(), 4);
}

}  // namespace
