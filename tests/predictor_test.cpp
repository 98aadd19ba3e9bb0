// Tests for the learning-augmented extension (core/predictor.hpp,
// paging/predictive_marking.hpp, RBma predictive mode) — the paper's §5
// future-work direction, implemented.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/predictor.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "paging/belady.hpp"
#include "paging/marking.hpp"
#include "paging/predictive_marking.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

TEST(EwmaPredictor, RecentKeysScoreHigher) {
  EwmaPredictor p(100.0);
  for (int i = 0; i < 10; ++i) p.observe(1);
  for (int i = 0; i < 10; ++i) p.observe(2);
  // Key 2 was seen as often but more recently.
  EXPECT_GT(p.score(2), p.score(1));
  EXPECT_GT(p.score(1), 0.0);
  EXPECT_EQ(p.score(99), 0.0);
}

TEST(EwmaPredictor, FrequentKeysScoreHigher) {
  EwmaPredictor p(10000.0);  // long half-life: frequency dominates
  for (int i = 0; i < 100; ++i) p.observe(1);
  p.observe(2);
  EXPECT_GT(p.score(1), p.score(2));
}

TEST(EwmaPredictor, DecayReducesScore) {
  EwmaPredictor p(50.0);
  p.observe(1);
  const double fresh = p.score(1);
  for (int i = 0; i < 500; ++i) p.observe(2);  // time passes
  EXPECT_LT(p.score(1), fresh / 100.0);
}

TEST(OraclePredictor, ScoresByNextOccurrence) {
  trace::Trace t(4, "x");
  t.push_back(trace::Request::make(0, 1));  // pos 0
  t.push_back(trace::Request::make(2, 3));  // pos 1
  t.push_back(trace::Request::make(0, 1));  // pos 2
  OraclePredictor p(t);
  // Before any observation (now=0): {0,1} next at 0 (dist 1),
  // {2,3} next at 1 (dist 2).
  EXPECT_GT(p.score(pair_key(0, 1)), p.score(pair_key(2, 3)));
  p.observe(pair_key(0, 1));  // now=1
  p.observe(pair_key(2, 3));  // now=2
  // {2,3} never occurs again; {0,1} occurs at pos 2.
  EXPECT_EQ(p.score(pair_key(2, 3)), 0.0);
  EXPECT_GT(p.score(pair_key(0, 1)), 0.0);
}

TEST(OraclePredictor, UnknownPairScoresZero) {
  trace::Trace t(4, "x");
  t.push_back(trace::Request::make(0, 1));
  OraclePredictor p(t);
  EXPECT_EQ(p.score(pair_key(2, 3)), 0.0);
}

TEST(NoisyOracle, ZeroErrorEqualsOracle) {
  Xoshiro256 rng(1);
  trace::Trace t = trace::materialize(*trace::stream_uniform(8, 200, rng));
  OraclePredictor oracle(t);
  NoisyOraclePredictor noisy(t, 0.0, Xoshiro256(2));
  for (const auto& r : t) {
    const std::uint64_t k = trace::pair_key(r);
    EXPECT_DOUBLE_EQ(noisy.score(k), oracle.score(k));
    oracle.observe(k);
    noisy.observe(k);
  }
}

// ---------------------------------------------------------------------
// PredictiveMarking engine.
// ---------------------------------------------------------------------

TEST(PredictiveMarking, FullTrustFollowsAdvice) {
  // Scorer: key's own value — larger keys are "hotter".  With trust 1 the
  // engine must always evict the smallest unmarked key.
  paging::PredictiveMarking pm(
      3, Xoshiro256(3), [](paging::Key k) { return static_cast<double>(k); },
      1.0);
  std::vector<paging::Key> ev;
  for (paging::Key k : {10, 20, 30}) pm.request(k, ev);
  pm.request(40, ev);  // new phase; all unmarked; coldest = 10
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0], 10u);
  EXPECT_EQ(pm.advised_evictions(), 1u);
  EXPECT_EQ(pm.random_evictions(), 0u);
}

TEST(PredictiveMarking, ZeroTrustIsPlainMarking) {
  paging::PredictiveMarking pm(
      4, Xoshiro256(4), [](paging::Key) { return 0.0; }, 0.0);
  std::vector<paging::Key> ev;
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    ev.clear();
    pm.request(1 + rng.next_below(12), ev);
  }
  EXPECT_EQ(pm.advised_evictions(), 0u);
  EXPECT_GT(pm.random_evictions(), 0u);
}

TEST(PredictiveMarking, PerfectAdviceBeatsPlainMarkingTowardBelady) {
  // Build a sequence; the oracle scorer is the reciprocal next-use
  // distance.  PredictiveMarking(trust=1) should fault noticeably less
  // than plain marking and sit between Belady and marking.
  Xoshiro256 seq_rng(6);
  const std::size_t cap = 8;
  std::vector<paging::Key> seq;
  for (int i = 0; i < 30000; ++i) seq.push_back(1 + seq_rng.next_below(24));

  // Oracle infrastructure over raw keys.
  std::vector<std::vector<std::uint32_t>> pos(25);
  for (std::uint32_t i = 0; i < seq.size(); ++i)
    pos[seq[i]].push_back(i);
  std::size_t now = 0;
  auto scorer = [&](paging::Key k) {
    const auto& v = pos[k];
    const auto it = std::lower_bound(v.begin(), v.end(),
                                     static_cast<std::uint32_t>(now));
    return it == v.end() ? 0.0 : 1.0 / (static_cast<double>(*it) - now + 1.0);
  };

  paging::PredictiveMarking predictive(cap, Xoshiro256(7), scorer, 1.0);
  paging::Marking plain(cap, Xoshiro256(7));
  std::vector<paging::Key> ev;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    now = i;
    ev.clear();
    predictive.request(seq[i], ev);
    ev.clear();
    plain.request(seq[i], ev);
  }
  const std::uint64_t opt = paging::Belady::optimal_faults(cap, seq);
  EXPECT_LT(predictive.faults(), plain.faults());
  EXPECT_GE(predictive.faults(), opt);
}

// ---------------------------------------------------------------------
// R-BMA in learning-augmented mode.
// ---------------------------------------------------------------------

using rdcn::testing::make_instance;

TEST(PredictiveRBma, OracleAdviceReducesRoutingCost) {
  const net::Topology topo = net::make_fat_tree(24);
  Xoshiro256 rng(8);
  trace::FlowPoolParams params;
  params.candidate_pairs = 400;
  params.zipf_skew = 0.9;
  params.max_active_flows = 64;
  params.hub_fraction = 0.25;
  const trace::Trace t =
      trace::materialize(*trace::stream_flow_pool(24, 40000, params, rng));
  const Instance inst = make_instance(topo.distances, 3, 16);

  auto mean_cost = [&](const RBmaOptions& base) {
    double total = 0.0;
    for (std::uint64_t s = 1; s <= 5; ++s) {
      RBmaOptions opts = base;
      opts.seed = s;
      if (base.predictor != nullptr) {
        opts.predictor = std::make_shared<OraclePredictor>(t);
      }
      RBma alg(inst, opts);
      for (const Request& r : t) alg.serve(r);
      total += static_cast<double>(alg.costs().routing_cost);
    }
    return total / 5.0;
  };

  RBmaOptions plain;
  RBmaOptions advised;
  advised.predictor = std::make_shared<OraclePredictor>(t);
  advised.prediction_trust = 1.0;
  const double plain_cost = mean_cost(plain);
  const double advised_cost = mean_cost(advised);
  EXPECT_LT(advised_cost, plain_cost);
}

TEST(PredictiveRBma, KeepsMatchingInvariants) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(9);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 10000, 1.0, rng));
  RBmaOptions opts;
  opts.predictor = std::make_shared<EwmaPredictor>(500.0);
  opts.prediction_trust = 0.7;
  opts.seed = 3;
  RBma alg(make_instance(topo.distances, 3, 10), opts);
  for (const Request& r : t) alg.serve(r);
  EXPECT_TRUE(alg.matching().check_invariants());
  EXPECT_TRUE(alg.check_intersection_invariant());
  EXPECT_NE(alg.name().find("predictive:ewma"), std::string::npos);
}

TEST(PredictiveRBma, EwmaPredictorIsOnlineRealizable) {
  // The EWMA predictor must not require the future: build it before the
  // trace exists, stream requests, and still help on a bursty workload.
  const net::Topology topo = net::make_fat_tree(24);
  Xoshiro256 rng(10);
  trace::FlowPoolParams params;
  params.candidate_pairs = 300;
  params.mean_burst_length = 40.0;
  const trace::Trace t =
      trace::materialize(*trace::stream_flow_pool(24, 40000, params, rng));
  const Instance inst = make_instance(topo.distances, 3, 16);

  RBmaOptions opts;
  opts.predictor = std::make_shared<EwmaPredictor>(2000.0);
  opts.prediction_trust = 0.8;
  opts.seed = 1;
  RBma alg(inst, opts);
  for (const Request& r : t) alg.serve(r);
  // Sanity only: it runs, is feasible, and matches a useful share.
  EXPECT_GT(alg.costs().direct_fraction(), 0.1);
}

}  // namespace
