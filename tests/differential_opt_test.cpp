// Differential pass against the exact offline optimum: on tiny instances
// (<= 6 racks, where tests/opt_small.hpp enumerates the full matching state
// space) any online algorithm's total cost must be >= OPT.  Runs both
// exhaustively (every trace over a small pair alphabet) and on randomized
// instances sweeping topology, b, and α.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bma.hpp"
#include "scenario/registry.hpp"
#include "core/r_bma.hpp"
#include "net/distance_matrix.hpp"
#include "net/topology.hpp"
#include "sim/parallel_runner.hpp"
#include "trace/trace.hpp"
#include "opt_small.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

std::uint64_t online_cost(const std::string& name, const Instance& inst,
                          const trace::Trace& t, std::uint64_t seed) {
  auto alg = scenario::make_algorithm(name, inst, &t, seed);
  for (const Request& r : t) alg->serve(r);
  return alg->costs().total_cost();
}

void expect_dominates_opt(const Instance& inst, const trace::Trace& t,
                          const std::string& context) {
  const std::uint64_t opt = optimal_dynamic_cost(inst, t);
  EXPECT_GE(online_cost("bma", inst, t, 1), opt) << "bma  @ " << context;
  // R-BMA is randomized: the bound is per-run, so check several seeds.
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_GE(online_cost("r_bma", inst, t, seed), opt)
        << "r_bma(seed=" << seed << ") @ " << context;
  }
}

TEST(DifferentialOpt, ExhaustiveTracesThreeRacks) {
  // 3 racks => 3 pairs; every trace of length 5 over the pair alphabet
  // (3^5 = 243 traces), on a uniform metric, b = 1.
  const auto d = net::DistanceMatrix::uniform(3, 3);
  const Instance inst = make_instance(d, 1, 4);
  const Rack us[3] = {0, 0, 1};
  const Rack vs[3] = {1, 2, 2};
  const int kLen = 5;
  std::atomic<int> total{0};
  // Each trace is an independent instance, so the sweep rides the
  // persistent pool (gtest assertions are thread-safe on pthreads).
  sim::parallel_for(243, [&](std::size_t code) {
    trace::Trace t(3, "exhaustive3");
    auto c = static_cast<int>(code);
    for (int i = 0; i < kLen; ++i) {
      t.push_back(Request::make(us[c % 3], vs[c % 3]));
      c /= 3;
    }
    expect_dominates_opt(inst, t, "trace#" + std::to_string(code));
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 243);
}

TEST(DifferentialOpt, ExhaustiveTracesFourRacksLineMetric) {
  // 4 racks on a line (non-uniform distances), every trace of length 4
  // over the 6 pairs (6^4 = 1296 traces), b = 1, α = 3.
  const net::Topology topo = net::make_line(4);
  const Instance inst = make_instance(topo.distances, 1, 3);
  std::vector<std::pair<Rack, Rack>> pairs;
  for (Rack u = 0; u < 4; ++u) {
    for (Rack v = u + 1; v < 4; ++v) pairs.emplace_back(u, v);
  }
  ASSERT_EQ(pairs.size(), 6u);
  const int kLen = 4;
  sim::parallel_for(1296, [&](std::size_t code) {
    trace::Trace t(4, "exhaustive4");
    auto c = static_cast<int>(code);
    for (int i = 0; i < kLen; ++i) {
      t.push_back(Request::make(pairs[c % 6].first, pairs[c % 6].second));
      c /= 6;
    }
    expect_dominates_opt(inst, t, "trace#" + std::to_string(code));
  });
}

TEST(DifferentialOpt, RandomizedInstancesUpToSixRacks) {
  // Sweep n ∈ {4,5,6}, b ∈ {1,2}, α ∈ {0,1,5,20} on random traces over a
  // ring metric (distinct distances without blowing up OPT's state space).
  Xoshiro256 rng(71);
  for (std::size_t n : {4u, 5u, 6u}) {
    const net::Topology topo = net::make_ring(n);
    for (std::size_t b : {1u, 2u}) {
      for (std::uint64_t alpha : {0u, 1u, 5u, 20u}) {
        const Instance inst = make_instance(topo.distances, b, alpha);
        for (int rep = 0; rep < 3; ++rep) {
          trace::Trace t(n, "rand");
          const std::size_t len = 20 + rng.next_below(30);
          for (std::size_t i = 0; i < len; ++i) {
            const Rack u = static_cast<Rack>(rng.next_below(n));
            Rack v = static_cast<Rack>(rng.next_below(n - 1));
            if (v >= u) ++v;
            t.push_back(Request::make(u, v));
          }
          expect_dominates_opt(
              inst, t,
              "n=" + std::to_string(n) + " b=" + std::to_string(b) +
                  " alpha=" + std::to_string(alpha));
        }
      }
    }
  }
}

TEST(DifferentialOpt, AdversarialStarChurn) {
  // The Lemma 1 lower-bound shape: round-robin over b+1 pairs at a common
  // rack forces churn; even there the online algorithms stay above OPT.
  const auto d = net::DistanceMatrix::uniform(4, 2);
  const Instance inst = make_instance(d, 1, 6);
  trace::Trace t(4, "star-churn");
  for (int round = 0; round < 15; ++round) {
    t.push_back(Request::make(0, 1));
    t.push_back(Request::make(0, 2));
  }
  expect_dominates_opt(inst, t, "star-churn");
}

TEST(DifferentialOpt, GreedyAndObliviousAlsoDominated) {
  // Sanity net for the remaining demand-aware baselines.
  const net::Topology topo = net::make_ring(5);
  const Instance inst = make_instance(topo.distances, 2, 3);
  Xoshiro256 rng(73);
  for (int rep = 0; rep < 5; ++rep) {
    trace::Trace t(5, "baselines");
    for (int i = 0; i < 30; ++i) {
      const Rack u = static_cast<Rack>(rng.next_below(5));
      Rack v = static_cast<Rack>(rng.next_below(4));
      if (v >= u) ++v;
      t.push_back(Request::make(u, v));
    }
    const std::uint64_t opt = optimal_dynamic_cost(inst, t);
    EXPECT_GE(online_cost("greedy", inst, t, 1), opt);
    EXPECT_GE(online_cost("oblivious", inst, t, 1), opt);
  }
}

}  // namespace
