// Differential tests: cross-check optimized data structures against naive
// reference implementations under randomized workloads.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/b_matching.hpp"
#include "core/oblivious.hpp"
#include "core/r_bma.hpp"
#include "net/topology.hpp"
#include "trace/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;
using rdcn::testing::oblivious_cost;
using rdcn::testing::static_routing_cost;

/// Naive b-matching: std::set of pairs + std::map degree counting.
class ReferenceMatching {
 public:
  ReferenceMatching(std::size_t n, std::size_t cap) : n_(n), cap_(cap) {}

  bool has(Rack u, Rack v) const {
    return edges_.count(ordered(u, v)) > 0;
  }
  std::size_t degree(Rack u) const {
    const auto it = degree_.find(u);
    return it == degree_.end() ? 0 : it->second;
  }
  bool can_add(Rack u, Rack v) const {
    return !has(u, v) && degree(u) < cap_ && degree(v) < cap_;
  }
  void add(Rack u, Rack v) {
    edges_.insert(ordered(u, v));
    ++degree_[u];
    ++degree_[v];
  }
  void remove(Rack u, Rack v) {
    edges_.erase(ordered(u, v));
    --degree_[u];
    --degree_[v];
  }
  std::size_t size() const { return edges_.size(); }

 private:
  static std::pair<Rack, Rack> ordered(Rack u, Rack v) {
    return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
  }
  std::size_t n_, cap_;
  std::set<std::pair<Rack, Rack>> edges_;
  std::map<Rack, std::size_t> degree_;
};

TEST(Differential, BMatchingAgainstNaiveReference) {
  Xoshiro256 rng(61);
  const std::size_t n = 20, cap = 3;
  BMatching fast(n, cap);
  ReferenceMatching ref(n, cap);
  for (int step = 0; step < 100000; ++step) {
    const Rack u = static_cast<Rack>(rng.next_below(n));
    Rack v = static_cast<Rack>(rng.next_below(n - 1));
    if (v >= u) ++v;
    ASSERT_EQ(fast.has(u, v), ref.has(u, v));
    if (ref.has(u, v)) {
      fast.remove(u, v);
      ref.remove(u, v);
    } else if (ref.can_add(u, v)) {
      fast.add(u, v);
      ref.add(u, v);
    }
    ASSERT_EQ(fast.size(), ref.size());
    ASSERT_EQ(fast.degree(u), ref.degree(u));
    ASSERT_EQ(fast.degree(v), ref.degree(v));
  }
  EXPECT_TRUE(fast.check_invariants());
}

TEST(Differential, SimulatorLedgerAgainstNaiveAccounting) {
  // Recompute R-BMA's routing ledger independently: walk the trace,
  // querying the matching before each serve.
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(62);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 15000, 1.1, rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 3;
  inst.alpha = 12;

  RBma alg(inst, {.seed = 5});
  std::uint64_t naive_routing = 0;
  std::uint64_t naive_direct = 0;
  for (const Request& r : t) {
    if (alg.matching().has(r.u, r.v)) {
      naive_routing += 1;
      ++naive_direct;
    } else {
      naive_routing += topo.distances(r.u, r.v);
    }
    alg.serve(r);
  }
  EXPECT_EQ(alg.costs().routing_cost, naive_routing);
  EXPECT_EQ(alg.costs().direct_serves, naive_direct);
}

TEST(Differential, StaticCostEvaluatorAgainstObliviousRun) {
  const net::Topology topo = net::make_fat_tree(16);
  Xoshiro256 rng(63);
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(16, 8000, rng));
  Instance inst;
  inst.distances = &topo.distances;
  inst.b = 2;
  inst.alpha = 5;

  Oblivious obl(inst);
  for (const Request& r : t) obl.serve(r);
  EXPECT_EQ(obl.costs().routing_cost, oblivious_cost(inst, t));
  EXPECT_EQ(obl.costs().routing_cost, static_routing_cost(inst, t, {}));
}

}  // namespace
