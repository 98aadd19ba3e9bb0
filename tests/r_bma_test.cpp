// Tests of R-BMA (core/r_bma.hpp): the Theorem 1 special-request cadence,
// the Theorem 2 intersection invariant, lazy-eviction semantics
// (footnote 2), determinism per seed, and feasibility under load.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "core/r_bma.hpp"
#include "net/distance_matrix.hpp"
#include "net/topology.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(RBma, UniformCaseEveryRequestIsSpecial) {
  // α = 1, ℓe = 1 -> ke = 1: the pure Theorem 2 regime.
  const auto d = net::DistanceMatrix::uniform(6, 1);
  RBma alg(make_instance(d, 2, 1), {.seed = 3});
  for (int i = 0; i < 10; ++i) alg.serve(Request::make(0, 1 + (i % 3)));
  EXPECT_EQ(alg.special_requests(), 10u);
}

TEST(RBma, SpecialCadenceIsCeilAlphaOverDistance) {
  // ℓe = 3, α = 10 -> ke = ceil(10/3) = 4: reconfigures on request 4, 8, ...
  const auto d = net::DistanceMatrix::uniform(4, 3);
  RBma alg(make_instance(d, 2, 10), {.seed = 3});
  const Request r = Request::make(0, 1);
  for (int i = 1; i <= 3; ++i) {
    alg.serve(r);
    EXPECT_EQ(alg.special_requests(), 0u) << "request " << i;
    EXPECT_FALSE(alg.matching().has(0, 1));
  }
  alg.serve(r);
  EXPECT_EQ(alg.special_requests(), 1u);
  EXPECT_TRUE(alg.matching().has(0, 1));  // doubly cached -> matched
  for (int i = 5; i <= 7; ++i) alg.serve(r);
  EXPECT_EQ(alg.special_requests(), 1u);
  alg.serve(r);
  EXPECT_EQ(alg.special_requests(), 2u);
}

TEST(RBma, FirstSpecialRequestCreatesMatchingEdge) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  RBma alg(make_instance(d, 1, 1), {.seed = 1});
  alg.serve(Request::make(2, 3));
  EXPECT_TRUE(alg.matching().has(2, 3));
  EXPECT_TRUE(alg.cached_at(2, pair_key(2, 3)));
  EXPECT_TRUE(alg.cached_at(3, pair_key(2, 3)));
}

class RBmaInvariant
    : public ::testing::TestWithParam<
          std::tuple<paging::EngineKind, bool, int>> {};

TEST_P(RBmaInvariant, IntersectionInvariantAndFeasibilityUnderChurn) {
  const auto [engine, lazy, b] = GetParam();
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(7);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 8000, 1.1, rng));

  RBmaOptions opts;
  opts.engine = engine;
  opts.lazy_eviction = lazy;
  opts.seed = 11;
  RBma alg(make_instance(topo.distances, b, 16), opts);

  for (std::size_t i = 0; i < t.size(); ++i) {
    alg.serve(t[i]);
    if (i % 500 == 0) {
      ASSERT_TRUE(alg.matching().check_invariants()) << "i=" << i;
      ASSERT_TRUE(alg.check_intersection_invariant()) << "i=" << i;
    }
  }
  EXPECT_TRUE(alg.matching().check_invariants());
  EXPECT_TRUE(alg.check_intersection_invariant());
  EXPECT_GT(alg.matching().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesModesDegrees, RBmaInvariant,
    ::testing::Combine(::testing::Values(paging::EngineKind::kMarking,
                                         paging::EngineKind::kLru,
                                         paging::EngineKind::kFifo,
                                         paging::EngineKind::kClock,
                                         paging::EngineKind::kRandom,
                                         paging::EngineKind::kFlushWhenFull,
                                         paging::EngineKind::kLfu,
                                         paging::EngineKind::kArc),
                       ::testing::Bool(), ::testing::Values(1, 3, 6)));

TEST(RBma, EagerModeRemovesEdgesOnEviction) {
  // b = 1, uniform: second pair through a shared endpoint must displace
  // the first, and eagerly drop it from the matching.
  const auto d = net::DistanceMatrix::uniform(4, 1);
  RBmaOptions opts;
  opts.lazy_eviction = false;
  opts.seed = 5;
  RBma alg(make_instance(d, 1, 1), opts);
  alg.serve(Request::make(0, 1));
  ASSERT_TRUE(alg.matching().has(0, 1));
  alg.serve(Request::make(0, 2));  // evicts {0,1} from cache of 0
  EXPECT_TRUE(alg.matching().has(0, 2));
  EXPECT_FALSE(alg.matching().has(0, 1));
  EXPECT_EQ(alg.matching().degree(0), 1u);
}

TEST(RBma, LazyModeKeepsEvictedEdgeUntilCapacityNeedsIt) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  RBmaOptions opts;
  opts.lazy_eviction = true;
  opts.seed = 5;
  RBma alg(make_instance(d, 1, 1), opts);
  alg.serve(Request::make(0, 1));
  ASSERT_TRUE(alg.matching().has(0, 1));
  alg.serve(Request::make(0, 2));
  // {0,1} left the cache of rack 0 but rack 0's matching degree must make
  // room for {0,2}: with b=1 the marked edge is pruned immediately.
  EXPECT_TRUE(alg.matching().has(0, 2));
  EXPECT_FALSE(alg.matching().has(0, 1));
}

TEST(RBma, LazyModeNeverRemovesMoreThanEager) {
  // Same trace, engine, and seed: lazy eviction only defers removals, so
  // its removal count is at most eager's — and on a bursty workload it is
  // strictly smaller (resurrected edges never pay the removal).
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(21);
  trace::FlowPoolParams p;
  p.candidate_pairs = 120;
  p.mean_burst_length = 25.0;
  const trace::Trace t =
      trace::materialize(*trace::stream_flow_pool(20, 20000, p, rng));
  const Instance inst = make_instance(topo.distances, 3, 8);

  RBmaOptions lazy_opts{.engine = paging::EngineKind::kMarking,
                        .lazy_eviction = true,
                        .seed = 9};
  RBmaOptions eager_opts = lazy_opts;
  eager_opts.lazy_eviction = false;
  RBma lazy(inst, lazy_opts), eager(inst, eager_opts);
  for (const Request& r : t) {
    lazy.serve(r);
    eager.serve(r);
  }
  EXPECT_LT(lazy.costs().edge_removals, eager.costs().edge_removals);
  // The paging layers are identical (same seeds), so special counts agree.
  EXPECT_EQ(lazy.special_requests(), eager.special_requests());
}

TEST(RBma, LazyModeMarksEdgesTransiently) {
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(22);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 15000, 1.0, rng));
  RBma alg(make_instance(topo.distances, 2, 6),
           {.lazy_eviction = true, .seed = 10});
  bool saw_marked = false;
  for (const Request& r : t) {
    alg.serve(r);
    saw_marked |= (alg.marked_count() > 0);
  }
  EXPECT_TRUE(saw_marked);
}

TEST(RBma, DeterministicGivenSeed) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(9);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 5000, 1.0, rng));
  const Instance inst = make_instance(topo.distances, 3, 8);

  RBma a(inst, {.seed = 42}), b(inst, {.seed = 42});
  for (const Request& r : t) {
    a.serve(r);
    b.serve(r);
  }
  EXPECT_EQ(a.costs().routing_cost, b.costs().routing_cost);
  EXPECT_EQ(a.costs().reconfig_cost, b.costs().reconfig_cost);
  EXPECT_EQ(a.special_requests(), b.special_requests());
}

TEST(RBma, DifferentSeedsUsuallyDiffer) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(10);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 5000, 1.0, rng));
  const Instance inst = make_instance(topo.distances, 3, 8);
  RBma a(inst, {.seed = 1}), b(inst, {.seed = 2});
  for (const Request& r : t) {
    a.serve(r);
    b.serve(r);
  }
  // Marking evictions are random, so the ledgers should diverge.
  EXPECT_NE(a.costs().total_cost(), b.costs().total_cost());
}

TEST(RBma, ReconfiguresOnlyOnSpecialRequests) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(12);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 8000, 1.0, rng));
  RBma alg(make_instance(topo.distances, 3, 20), {.seed = 3});
  std::uint64_t last_specials = 0;
  std::uint64_t last_ops = 0;
  for (const Request& r : t) {
    alg.serve(r);
    const std::uint64_t ops =
        alg.costs().edge_adds + alg.costs().edge_removals;
    if (alg.special_requests() == last_specials) {
      // No special request happened: the matching must not have changed.
      ASSERT_EQ(ops, last_ops);
    }
    last_specials = alg.special_requests();
    last_ops = ops;
  }
}

TEST(RBma, CachesBoundTheMatchingDegree) {
  // Paging caches have capacity b, so no rack can exceed b matched edges
  // even under adversarial star traffic.
  const net::Topology topo = net::make_star(12);
  const trace::Trace t =
      trace::materialize(*trace::stream_round_robin_star(12, 4000, 6));
  for (std::size_t b : {1ul, 2ul, 4ul}) {
    RBma alg(make_instance(topo.distances, b, 4), {.seed = 13});
    for (const Request& r : t) alg.serve(r);
    for (Rack v = 0; v < 12; ++v) ASSERT_LE(alg.matching().degree(v), b);
  }
}

}  // namespace
