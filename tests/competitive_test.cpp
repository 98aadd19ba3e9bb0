// Empirical competitive-ratio checks against the exact dynamic optimum
// (OPT-1 / RED-1 in DESIGN.md): the paper's guarantees, made executable on
// exhaustively solvable instances.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "core/r_bma.hpp"
#include "net/distance_matrix.hpp"
#include "trace/generators.hpp"
#include "opt_small.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

/// Mean R-BMA cost over `seeds` runs on one trace.
double mean_rbma_cost(const Instance& inst, const trace::Trace& t,
                      int seeds) {
  double total = 0.0;
  for (int s = 1; s <= seeds; ++s) {
    RBma alg(inst, {.seed = static_cast<std::uint64_t>(s)});
    for (const Request& r : t) alg.serve(r);
    total += static_cast<double>(alg.costs().total_cost());
  }
  return total / seeds;
}

class UniformCompetitive : public ::testing::TestWithParam<int> {};

TEST_P(UniformCompetitive, RBmaWithinProvenBoundOfOpt) {
  // Uniform case (α = 1, ℓe = 1), n = 5, b = 2: Corollary 3 gives expected
  // competitive ratio O(γ log b) with γ = 2.  The hidden constant in the
  // analysis is ≤ 4·4·2·(ln b + 1) ≈ huge; what we check empirically is far
  // tighter: mean cost within 8·OPT + β on random traces.
  const int seed = GetParam();
  const auto d = net::DistanceMatrix::uniform(5, 1);
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 13 + 1);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(5, 300, rng));
  const Instance inst = make_instance(d, 2, 1);

  const std::uint64_t opt = optimal_dynamic_cost(inst, t);
  const double alg = mean_rbma_cost(inst, t, 10);
  const double beta = 40.0;  // additive slack (|V²|·γ·α-style constant)
  EXPECT_LE(alg, 8.0 * static_cast<double>(opt) + beta)
      << "opt=" << opt << " alg=" << alg;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformCompetitive, ::testing::Range(0, 10));

class GeneralCompetitive : public ::testing::TestWithParam<int> {};

TEST_P(GeneralCompetitive, RBmaWithinGammaScaledBoundOfOpt) {
  // General case: distances 3, α = 5 (γ = 1 + 3/5 = 1.6).  The reduction
  // loses a 4γ factor on top of the uniform ratio; the empirical ratio
  // stays an order of magnitude below the proven worst case.
  const int seed = GetParam();
  const auto d = net::DistanceMatrix::uniform(5, 3);
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 17 + 3);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(5, 400, 0.8, rng));
  const Instance inst = make_instance(d, 2, 5);

  const std::uint64_t opt = optimal_dynamic_cost(inst, t);
  const double alg = mean_rbma_cost(inst, t, 10);
  const double gamma = inst.gamma();
  const double beta = 10.0 * gamma * static_cast<double>(inst.alpha);
  EXPECT_LE(alg, 8.0 * gamma * static_cast<double>(opt) + beta)
      << "opt=" << opt << " alg=" << alg;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralCompetitive, ::testing::Range(0, 10));

TEST(Competitive, BmaAlsoBoundedButDeterministic) {
  // BMA is Θ(b)-competitive; on these tiny instances it must stay within
  // c·b·OPT + β for a small c.
  const auto d = net::DistanceMatrix::uniform(5, 2);
  const std::size_t b = 2;
  const Instance inst = make_instance(d, b, 4);
  for (int seed = 0; seed < 10; ++seed) {
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7 + 2);
    const trace::Trace t =
        trace::materialize(*trace::stream_uniform(5, 300, rng));
    Bma alg(inst);
    for (const Request& r : t) alg.serve(r);
    const std::uint64_t opt = optimal_dynamic_cost(inst, t);
    EXPECT_LE(static_cast<double>(alg.costs().total_cost()),
              4.0 * static_cast<double>(b) * static_cast<double>(opt) + 50.0)
        << "seed=" << seed;
  }
}

TEST(Competitive, RBmaTracksOptOnEasyLocalityTraces) {
  // A trace with one dominant pair: every reasonable algorithm should land
  // within a small constant of OPT (this is the regime the paper's Fig 1
  // database workload approximates).
  const auto d = net::DistanceMatrix::uniform(4, 3);
  const Instance inst = make_instance(d, 1, 5);
  trace::Trace t(4, "dominant");
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    if (rng.next_bool(0.9)) {
      t.push_back(Request::make(0, 1));
    } else {
      t.push_back(Request::make(2, 3));
    }
  }
  const std::uint64_t opt = optimal_dynamic_cost(inst, t);
  const double alg = mean_rbma_cost(inst, t, 10);
  EXPECT_LE(alg, 2.5 * static_cast<double>(opt) + 20.0);
}

}  // namespace
