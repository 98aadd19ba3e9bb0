// The golden ledger anchors: the check that pins algorithm ledgers on
// realistic traces.  Fixed-seed Facebook-like (database cluster) and
// Microsoft-like traces on a 100-rack fat-tree (2·10^5 requests, α = 60)
// run through bma, r_bma, so_bma, greedy and oblivious at b ∈ {4, 16, 64}
// (30 anchors), through r_bma:eager and r_bma with each other paging
// engine at b = 16 (16 more), and through rotor and offline_dynamic at
// b = 16 (4 more).
// Each cell's final ledger must equal its anchor on all four execution
// paths: one-request batches (serve()) and the simulator's kServeChunk
// batches, each with SIMD kernels and with kernel dispatch forced to the
// scalar reference.  The test sets both dispatch modes itself, whatever
// RDCN_FORCE_SCALAR_KERNELS says, and restores the ambient mode after
// each cell.
//
// Matchers are built through the scenario registry from their spec
// strings, so the anchors also pin that the registry path is
// behaviour-identical to direct construction.  An intentional behaviour
// change that moves an anchor must regenerate the table in the same
// change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/facebook_like.hpp"
#include "trace/microsoft_like.hpp"
#include "scalar_replay.hpp"

namespace {

using namespace rdcn;

constexpr std::size_t kRacks = 100;
constexpr std::size_t kRequests = 200'000;
constexpr std::uint64_t kAlpha = 60;
constexpr std::uint64_t kSeed = 42;

// Golden cost ledgers captured with the exact trace/instance parameters
// above: the 30 rows of the five default algorithms at the seed commit, the
// 16 r_bma rows with `eager` or a non-default `engine` at commit 08ea990,
// the 4 rotor and offline_dynamic rows at commit aab28d8.
// Every entry is {routing_cost, reconfig_cost, edge_adds, edge_removals}.
struct Golden {
  const char* trace;
  const char* algorithm;
  std::size_t b;
  std::uint64_t routing_cost;
  std::uint64_t reconfig_cost;
  std::uint64_t edge_adds;
  std::uint64_t edge_removals;
};

constexpr Golden kGolden[] = {
    {"facebook_db", "bma", 4, 527334ull, 557400ull, 4727ull, 4563ull},
    {"facebook_db", "r_bma", 4, 467907ull, 604740ull, 5116ull, 4963ull},
    {"facebook_db", "so_bma", 4, 516230ull, 11940ull, 199ull, 0ull},
    {"facebook_db", "greedy", 4, 647421ull, 11940ull, 199ull, 0ull},
    {"facebook_db", "oblivious", 4, 761170ull, 0ull, 0ull, 0ull},
    {"facebook_db", "bma", 16, 424419ull, 264240ull, 2570ull, 1834ull},
    {"facebook_db", "r_bma", 16, 385508ull, 197280ull, 2013ull, 1275ull},
    {"facebook_db", "so_bma", 16, 388057ull, 47880ull, 798ull, 0ull},
    {"facebook_db", "greedy", 16, 517462ull, 47880ull, 798ull, 0ull},
    {"facebook_db", "oblivious", 16, 761170ull, 0ull, 0ull, 0ull},
    {"facebook_db", "bma", 64, 372821ull, 96240ull, 1604ull, 0ull},
    {"facebook_db", "r_bma", 64, 372821ull, 96240ull, 1604ull, 0ull},
    {"facebook_db", "so_bma", 64, 242711ull, 191460ull, 3191ull, 0ull},
    {"facebook_db", "greedy", 64, 328084ull, 191760ull, 3196ull, 0ull},
    {"facebook_db", "oblivious", 64, 761170ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 4, 588408ull, 886320ull, 7421ull, 7351ull},
    {"microsoft", "r_bma", 4, 636482ull, 1178700ull, 9855ull, 9790ull},
    {"microsoft", "so_bma", 4, 565490ull, 11880ull, 198ull, 0ull},
    {"microsoft", "greedy", 4, 641626ull, 11940ull, 199ull, 0ull},
    {"microsoft", "oblivious", 4, 778026ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 16, 434822ull, 474780ull, 4068ull, 3845ull},
    {"microsoft", "r_bma", 16, 485035ull, 842940ull, 7155ull, 6894ull},
    {"microsoft", "so_bma", 16, 412398ull, 46680ull, 778ull, 0ull},
    {"microsoft", "greedy", 16, 495069ull, 47340ull, 789ull, 0ull},
    {"microsoft", "oblivious", 16, 778026ull, 0ull, 0ull, 0ull},
    {"microsoft", "bma", 64, 310802ull, 133800ull, 1544ull, 686ull},
    {"microsoft", "r_bma", 64, 319109ull, 249360ull, 2507ull, 1649ull},
    {"microsoft", "so_bma", 64, 244624ull, 168060ull, 2801ull, 0ull},
    {"microsoft", "greedy", 64, 273810ull, 176940ull, 2949ull, 0ull},
    {"microsoft", "oblivious", 64, 778026ull, 0ull, 0ull, 0ull},
    // R-BMA's eager mode and non-default paging engines at b = 16.
    {"facebook_db", "r_bma:eager", 16, 387260ull, 211080ull, 2049ull, 1469ull},
    {"facebook_db", "r_bma:engine=lru", 16, 384539ull, 192840ull,
     1974ull, 1240ull},
    {"facebook_db", "r_bma:engine=fifo", 16, 388534ull, 213060ull,
     2146ull, 1405ull},
    {"facebook_db", "r_bma:engine=clock", 16, 385164ull, 196380ull,
     2008ull, 1265ull},
    {"facebook_db", "r_bma:engine=random", 16, 390257ull, 221280ull,
     2217ull, 1471ull},
    {"facebook_db", "r_bma:engine=flush_when_full", 16, 386699ull, 203820ull,
     2073ull, 1324ull},
    {"facebook_db", "r_bma:engine=lfu", 16, 411339ull, 287820ull,
     2762ull, 2035ull},
    {"facebook_db", "r_bma:engine=arc", 16, 385503ull, 194520ull,
     1989ull, 1253ull},
    {"microsoft", "r_bma:eager", 16, 488643ull, 850980ull, 7195ull, 6988ull},
    {"microsoft", "r_bma:engine=lru", 16, 475680ull, 811860ull,
     6895ull, 6636ull},
    {"microsoft", "r_bma:engine=fifo", 16, 504678ull, 934500ull,
     7920ull, 7655ull},
    {"microsoft", "r_bma:engine=clock", 16, 483681ull, 866760ull,
     7354ull, 7092ull},
    {"microsoft", "r_bma:engine=random", 16, 507071ull, 880440ull,
     7471ull, 7203ull},
    {"microsoft", "r_bma:engine=flush_when_full", 16, 491078ull, 859620ull,
     7299ull, 7028ull},
    {"microsoft", "r_bma:engine=lfu", 16, 454340ull, 608460ull,
     5200ull, 4941ull},
    {"microsoft", "r_bma:engine=arc", 16, 437406ull, 553380ull,
     4726ull, 4497ull},
    // The demand-oblivious rotor and the epoch-based offline comparator
    // at b = 16.
    {"facebook_db", "rotor", 16, 669958ull, 0ull, 0ull, 0ull},
    {"facebook_db", "offline_dynamic", 16, 298693ull, 941160ull,
     8239ull, 7447ull},
    {"microsoft", "rotor", 16, 684898ull, 0ull, 0ull, 0ull},
    {"microsoft", "offline_dynamic", 16, 400252ull, 643920ull,
     5625ull, 5107ull},
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << g.trace << "/" << g.algorithm << "/b=" << g.b;
}

const net::Topology& anchor_topology() {
  static const net::Topology topo = net::make_fat_tree(kRacks);
  return topo;
}

const trace::Trace& anchor_trace(const std::string& name) {
  static const trace::Trace facebook_db =
      trace::materialize(*trace::stream_facebook_like(
          trace::FacebookCluster::kDatabase, kRacks, kRequests,
          Xoshiro256(2023)));
  static const trace::Trace microsoft = trace::materialize(
      *trace::stream_microsoft_like(kRacks, kRequests, {}, Xoshiro256(2024)));
  return name == "facebook_db" ? facebook_db : microsoft;
}

bool matches(const sim::Checkpoint& got, const Golden& g) {
  return got.routing_cost == g.routing_cost &&
         got.reconfig_cost == g.reconfig_cost &&
         got.edge_adds == g.edge_adds && got.edge_removals == g.edge_removals;
}

/// One line naming the cell, the path and every ledger field got and
/// wanted.
std::string mismatch_line(const Golden& g, const std::string& path,
                          const sim::Checkpoint& got) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "LEDGER-CHECK %s/%s/b=%zu [%s]: MISMATCH got "
      "{routing=%llu reconfig=%llu adds=%llu removals=%llu} want "
      "{routing=%llu reconfig=%llu adds=%llu removals=%llu}",
      g.trace, g.algorithm, g.b, path.c_str(),
      (unsigned long long)got.routing_cost,
      (unsigned long long)got.reconfig_cost,
      (unsigned long long)got.edge_adds,
      (unsigned long long)got.edge_removals,
      (unsigned long long)g.routing_cost, (unsigned long long)g.reconfig_cost,
      (unsigned long long)g.edge_adds, (unsigned long long)g.edge_removals);
  return buf;
}

/// Restores the dispatch mode the test started in, on every exit path.
struct AmbientDispatch {
  const bool force_scalar = simd::force_scalar();
  ~AmbientDispatch() { simd::set_force_scalar(force_scalar); }
};

class GoldenLedger : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenLedger, EveryPathAndDispatchModeMatchesTheAnchor) {
  const Golden& g = GetParam();
  const trace::Trace& t = anchor_trace(g.trace);
  core::Instance inst;
  inst.distances = &anchor_topology().distances;
  inst.b = g.b;
  inst.alpha = kAlpha;

  const AmbientDispatch ambient;
  for (const bool scalar_kernels : {false, true}) {
    simd::set_force_scalar(scalar_kernels);
    ASSERT_EQ(simd::active_isa(), scalar_kernels ? simd::Isa::kScalar
                                                 : simd::detected_isa());
    for (const bool batched : {false, true}) {
      const std::string path = std::string(batched ? "batched" : "scalar") +
                               (scalar_kernels ? "+scalar-kernels" : "");
      auto matcher = scenario::make_algorithm(g.algorithm, inst, &t, kSeed);
      const sim::Checkpoint got =
          batched ? sim::run_to_completion(*matcher, t).final()
                  : rdcn::testing::run_simulation_scalar(*matcher, t,
                                                         {t.size()})
                        .final();
      EXPECT_TRUE(matches(got, g)) << mismatch_line(g, path, got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Anchors, GoldenLedger, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      // gtest names allow only [A-Za-z0-9_]: "r_bma:engine=lru" becomes
      // "r_bma_engine_lru".
      std::string name = std::string(info.param.trace) + "_" +
                         info.param.algorithm + "_b" +
                         std::to_string(info.param.b);
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return c == ':' || c == '='; }, '_');
      return name;
    });

}  // namespace
