// Tests for the exact dynamic offline optimum (tests/opt_small.hpp) and the
// empirical competitiveness checks built on it.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "net/distance_matrix.hpp"
#include "trace/generators.hpp"
#include "opt_small.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(OptSmall, SinglePairNeverWorthMatchingWhenTraceShort) {
  // One request to a pair at distance 3, α = 100: OPT routes it (cost 3).
  const auto d = net::DistanceMatrix::uniform(3, 3);
  trace::Trace t(3, "one");
  t.push_back(Request::make(0, 1));
  EXPECT_EQ(optimal_dynamic_cost(make_instance(d, 1, 100), t), 3u);
}

TEST(OptSmall, HotPairWorthMatching) {
  // 100 requests to one pair at distance 3, α = 10:
  // OPT pre-installs the edge (10) and serves all 100 at cost 1:
  // 10 + 100 = 110.  (Routing all on the fixed network: 300.)
  const auto d = net::DistanceMatrix::uniform(3, 3);
  trace::Trace t(3, "hot");
  for (int i = 0; i < 100; ++i) t.push_back(Request::make(0, 1));
  EXPECT_EQ(optimal_dynamic_cost(make_instance(d, 1, 10), t), 110u);
}

TEST(OptSmall, AlphaTooHighMeansPureRouting) {
  const auto d = net::DistanceMatrix::uniform(3, 2);
  trace::Trace t(3, "few");
  for (int i = 0; i < 5; ++i) t.push_back(Request::make(0, 2));
  // Matching would cost α=100 up front > total routing 10.
  EXPECT_EQ(optimal_dynamic_cost(make_instance(d, 1, 100), t), 10u);
}

TEST(OptSmall, DegreeBoundForcesChoices) {
  // Star demand at node 0 to 1 and 2, alternating, b=1, uniform dist 2,
  // α=2.  OPT can keep only one matched; the other pays 2 per request.
  const auto d = net::DistanceMatrix::uniform(3, 2);
  trace::Trace t(3, "alt");
  for (int i = 0; i < 20; ++i)
    t.push_back(Request::make(0, 1 + static_cast<Rack>(i % 2)));
  const std::uint64_t opt_b1 =
      optimal_dynamic_cost(make_instance(d, 1, 2), t);
  const std::uint64_t opt_b2 =
      optimal_dynamic_cost(make_instance(d, 2, 2), t);
  EXPECT_LT(opt_b2, opt_b1);  // extra degree must help
  // With b=2 OPT pre-installs both edges (degree of rack 0 = 2) and
  // serves all 20 requests at 1: 2·α + 20 = 4 + 20 = 24.
  EXPECT_EQ(opt_b2, 24u);
}

TEST(OptSmall, MonotoneInAlpha) {
  const auto d = net::DistanceMatrix::uniform(4, 2);
  Xoshiro256 rng(3);
  const trace::Trace t = trace::materialize(*trace::stream_uniform(4, 60, rng));
  std::uint64_t prev = 0;
  for (std::uint64_t alpha : {1ull, 2ull, 5ull, 10ull, 100ull}) {
    const std::uint64_t c =
        optimal_dynamic_cost(make_instance(d, 1, alpha), t);
    EXPECT_GE(c, prev);  // larger α can only increase optimal cost
    prev = c;
  }
}

TEST(OptSmall, MonotoneInDegree) {
  const auto d = net::DistanceMatrix::uniform(5, 3);
  Xoshiro256 rng(4);
  const trace::Trace t = trace::materialize(*trace::stream_uniform(5, 80, rng));
  std::uint64_t prev = ~0ull;
  for (std::size_t b : {1ul, 2ul, 3ul}) {
    const std::uint64_t c = optimal_dynamic_cost(make_instance(d, b, 4), t);
    EXPECT_LE(c, prev);  // more degree can only decrease optimal cost
    prev = c;
  }
}

// OPT lower-bounds every algorithm — the sanity gate for the whole cost
// accounting stack.
class OptDominance : public ::testing::TestWithParam<
                         std::tuple<const char*, int>> {};

TEST_P(OptDominance, NoAlgorithmBeatsOpt) {
  const auto [algo, seed] = GetParam();
  const auto d = net::DistanceMatrix::uniform(5, 2);
  Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(5, 120, rng));
  const Instance inst = make_instance(d, 2, 3);

  auto matcher = scenario::make_algorithm(algo, inst, &t,
                              static_cast<std::uint64_t>(seed) + 7);
  for (const Request& r : t) matcher->serve(r);
  const std::uint64_t opt = optimal_dynamic_cost(inst, t);
  EXPECT_GE(matcher->costs().total_cost(), opt) << algo;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsSeeds, OptDominance,
    ::testing::Combine(::testing::Values("r_bma", "bma", "greedy",
                                         "oblivious", "so_bma"),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
