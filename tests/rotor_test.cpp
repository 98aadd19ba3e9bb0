// Tests for the demand-oblivious rotor baseline (core/rotor.hpp).
#include <gtest/gtest.h>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "core/rotor.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

using rdcn::testing::make_instance;

TEST(Rotor, ScheduleCoversAllPairsForEvenN) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  Rotor rotor(make_instance(d, 1, 10));
  EXPECT_EQ(rotor.schedule_length(), 7u);  // n-1 perfect matchings

  // Drive through one full rotation with slot_length=100 and b=1: every
  // pair must be directly connected in exactly one slot.
  RotorOptions opts;
  opts.slot_length = 1;
  Rotor spinner(make_instance(d, 1, 10), opts);
  FlatSet seen;
  trace::Trace dummy(8, "spin");
  for (int i = 0; i < 7; ++i) {
    for (std::uint64_t k : spinner.matching().edge_keys()) seen.insert(k);
    spinner.serve(trace::Request::make(0, 1));  // advances the slot
  }
  EXPECT_EQ(seen.size(), 8u * 7 / 2);  // all 28 pairs covered
}

TEST(Rotor, OddNUsesByes) {
  const auto d = net::DistanceMatrix::uniform(7, 2);
  Rotor rotor(make_instance(d, 1, 10));
  EXPECT_EQ(rotor.schedule_length(), 7u);  // (n+1)-1 rounds with byes
  // With b=1 each slot matches at most floor(7/2)=3 pairs.
  EXPECT_LE(rotor.matching().size(), 3u);
}

TEST(Rotor, RespectsDegreeCapWithManySwitches) {
  const auto d = net::DistanceMatrix::uniform(10, 2);
  for (std::size_t b : {1ul, 3ul, 5ul, 9ul, 20ul}) {
    RotorOptions opts;
    opts.slot_length = 7;
    Rotor rotor(make_instance(d, b, 10), opts);
    Xoshiro256 rng(b);
    for (int i = 0; i < 2000; ++i) {
      const auto u = static_cast<Rack>(rng.next_below(10));
      auto v = static_cast<Rack>(rng.next_below(9));
      if (v >= u) ++v;
      rotor.serve(Request::make(u, v));
      ASSERT_TRUE(rotor.matching().check_invariants());
    }
  }
}

TEST(Rotor, ReconfigurationsAreNotCharged) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  RotorOptions opts;
  opts.slot_length = 5;
  Rotor rotor(make_instance(d, 2, 50), opts);
  for (int i = 0; i < 500; ++i) rotor.serve(Request::make(0, 1));
  EXPECT_EQ(rotor.costs().reconfig_cost, 0u);
  EXPECT_GT(rotor.costs().prescheduled_ops, 0u);
}

TEST(Rotor, ObliviousToDemandButBeatsFixedNetwork) {
  // On skewed traffic the rotor still helps (every pair gets direct slots
  // a b/(n-1) fraction of the time) but demand-aware R-BMA does far
  // better — the paper's motivating comparison.
  const net::Topology topo = net::make_fat_tree(20);
  Xoshiro256 rng(9);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(20, 40000, 1.2, rng));
  const Instance inst = make_instance(topo.distances, 4, 30);

  auto run = [&](const char* algo) {
    auto m = scenario::make_algorithm(algo, inst, &t, 3);
    for (const Request& r : t) m->serve(r);
    return m->costs().routing_cost;
  };
  const std::uint64_t rotor = run("rotor");
  const std::uint64_t oblivious = run("oblivious");
  const std::uint64_t rbma = run("r_bma");
  EXPECT_LT(rotor, oblivious);
  EXPECT_LT(rbma, rotor);
}

TEST(Rotor, FactoryConstructs) {
  const auto d = net::DistanceMatrix::uniform(8, 2);
  auto m = scenario::make_algorithm("rotor", make_instance(d, 2, 10));
  EXPECT_EQ(m->name(), "rotor");
}

}  // namespace
