// Tests for workload generators and trace analytics (src/trace).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include <cmath>
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "trace/stats.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::trace;

void expect_well_formed(const Trace& t, std::size_t racks, std::size_t len) {
  EXPECT_EQ(t.num_racks(), racks);
  EXPECT_EQ(t.size(), len);
  for (const Request& r : t) {
    EXPECT_LT(r.u, racks);
    EXPECT_LT(r.v, racks);
    EXPECT_LT(r.u, r.v);  // canonical order
  }
}

TEST(Generators, UniformWellFormedAndDeterministic) {
  Xoshiro256 a(1), b(1);
  const Trace ta = materialize(*stream_uniform(20, 5000, a));
  const Trace tb = materialize(*stream_uniform(20, 5000, b));
  expect_well_formed(ta, 20, 5000);
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
}

TEST(Generators, UniformHasHighEntropyLowLocality) {
  Xoshiro256 rng(2);
  const TraceStats s =
      compute_stats(materialize(*stream_uniform(20, 30000, rng)));
  EXPECT_GT(s.normalized_pair_entropy, 0.95);
  EXPECT_LT(s.repeat_probability, 0.02);
  EXPECT_LT(s.gini, 0.2);
}

TEST(Generators, ZipfSkewIncreasesGini) {
  Xoshiro256 rng(3);
  const TraceStats flat = compute_stats(
      materialize(*stream_zipf_pairs(20, 20000, 0.2, rng.split(0))));
  const TraceStats skewed = compute_stats(
      materialize(*stream_zipf_pairs(20, 20000, 1.4, rng.split(1))));
  EXPECT_GT(skewed.gini, flat.gini + 0.2);
  EXPECT_LT(skewed.normalized_pair_entropy, flat.normalized_pair_entropy);
}

TEST(Generators, HotspotConcentratesOnHotRacks) {
  Xoshiro256 rng(4);
  const Trace t = materialize(*stream_hotspot(40, 20000, 0.1, 0.9, rng));
  expect_well_formed(t, 40, 20000);
  const TraceStats s = compute_stats(t);
  EXPECT_GT(s.top10pct_share, 0.5);
}

TEST(Generators, PermutationUsesExactlyNOver2Pairs) {
  Xoshiro256 rng(5);
  const Trace t = materialize(*stream_permutation(16, 5000, rng));
  expect_well_formed(t, 16, 5000);
  EXPECT_EQ(compute_stats(t).distinct_pairs, 8u);
}

TEST(Generators, FlowPoolHasTemporalLocality) {
  Xoshiro256 rng(6);
  FlowPoolParams p;
  p.candidate_pairs = 200;
  p.mean_burst_length = 40.0;
  p.max_active_flows = 8;
  const Trace bursty =
      materialize(*stream_flow_pool(30, 30000, p, rng.split(0)));
  const Trace iid =
      materialize(*stream_zipf_pairs(30, 30000, 1.0, rng.split(1)));
  const TraceStats sb = compute_stats(bursty);
  const TraceStats si = compute_stats(iid);
  EXPECT_GT(sb.locality_window64, si.locality_window64 + 0.15);
  EXPECT_GT(sb.repeat_probability, 0.05);
}

TEST(Generators, FlowPoolDriftChangesWorkingSet) {
  Xoshiro256 rng(7);
  FlowPoolParams p;
  p.candidate_pairs = 50;
  p.drift_period = 5000;
  p.drift_fraction = 0.5;
  const Trace t = materialize(*stream_flow_pool(30, 40000, p, rng));
  // With aggressive drift, far more distinct pairs appear than the
  // candidate set size at any instant.
  EXPECT_GT(compute_stats(t).distinct_pairs, 100u);
}

TEST(Generators, ElephantMiceSharesAndRuns) {
  Xoshiro256 rng(8);
  const Trace t =
      materialize(*stream_elephant_mice(30, 30000, 10, 0.7, 20.0, rng));
  expect_well_formed(t, 30, 30000);
  const TraceStats s = compute_stats(t);
  // Ten elephants must carry most traffic.
  EXPECT_GT(s.top1pct_share, 0.3);
  EXPECT_GT(s.repeat_probability, 0.3);  // long runs
}

TEST(Generators, RoundRobinStarCyclesExactly) {
  const Trace t = materialize(*stream_round_robin_star(10, 9, 2));
  ASSERT_EQ(t.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(t[i].u, 0u);
    EXPECT_EQ(t[i].v, 1 + (i % 3));
  }
}

TEST(FacebookLike, ProfilesAreOrderedByLocality) {
  Xoshiro256 r1(10), r2(11), r3(12);
  const TraceStats db = compute_stats(materialize(
      *stream_facebook_like(FacebookCluster::kDatabase, 50, 40000, r1)));
  const TraceStats web = compute_stats(materialize(
      *stream_facebook_like(FacebookCluster::kWebService, 50, 40000, r2)));
  const TraceStats hadoop = compute_stats(materialize(
      *stream_facebook_like(FacebookCluster::kHadoop, 50, 40000, r3)));
  // Database: most temporal locality; web: least.
  EXPECT_GT(db.locality_window64, web.locality_window64);
  EXPECT_GT(hadoop.locality_window64, web.locality_window64);
  // Database is the most spatially skewed.
  EXPECT_GT(db.gini, web.gini);
}

TEST(FacebookLike, NamesAndSizes) {
  Xoshiro256 rng(13);
  const Trace t = materialize(
      *stream_facebook_like(FacebookCluster::kDatabase, 30, 1000, rng));
  EXPECT_EQ(t.name(), "facebook_database");
  expect_well_formed(t, 30, 1000);
}

TEST(MicrosoftLike, MatrixIsSymmetricNormalizedZeroDiagonal) {
  Xoshiro256 rng(14);
  const std::vector<double> m = make_microsoft_matrix(20, {}, rng);
  double total = 0.0;
  for (std::size_t u = 0; u < 20; ++u) {
    EXPECT_EQ(m[u * 20 + u], 0.0);
    for (std::size_t v = u + 1; v < 20; ++v) {
      EXPECT_DOUBLE_EQ(m[u * 20 + v], m[v * 20 + u]);
      EXPECT_GE(m[u * 20 + v], 0.0);
      total += m[u * 20 + v];
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MicrosoftLike, SkewedButTemporallyUnstructured) {
  Xoshiro256 rng(15);
  const Trace t = materialize(*stream_microsoft_like(25, 50000, {}, rng));
  const TraceStats s = compute_stats(t);
  EXPECT_GT(s.gini, 0.5);                  // strong spatial skew
  EXPECT_LT(s.normalized_pair_entropy, 0.9);
  // i.i.d. sampling: repeat probability equals the collision probability
  // of the matrix, which is small but nonzero; no burst structure.
  EXPECT_LT(s.repeat_probability, 0.1);
}

TEST(TraceContainer, PrefixTruncates) {
  Xoshiro256 rng(16);
  const Trace t = materialize(*stream_uniform(10, 100, rng));
  const Trace p = t.prefix(30);
  EXPECT_EQ(p.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(p[i], t[i]);
  EXPECT_EQ(t.prefix(1000).size(), 100u);
}

TEST(Stats, HandComputedTinyTrace) {
  Trace t(4, "tiny");
  // Pairs: {0,1} x3, {2,3} x1.
  t.push_back(Request::make(0, 1));
  t.push_back(Request::make(0, 1));
  t.push_back(Request::make(1, 0));
  t.push_back(Request::make(2, 3));
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.num_requests, 4u);
  EXPECT_EQ(s.distinct_pairs, 2u);
  // Entropy of (3/4, 1/4) normalized by log2(2)=1.
  const double h = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(s.normalized_pair_entropy, h, 1e-9);
  // repeats: positions 1,2 repeat {0,1}: 2 of 3 transitions.
  EXPECT_NEAR(s.repeat_probability, 2.0 / 3.0, 1e-9);
}

TEST(Stats, PairCountsSortedDescending) {
  Trace t(4, "x");
  for (int i = 0; i < 5; ++i) t.push_back(Request::make(0, 1));
  for (int i = 0; i < 2; ++i) t.push_back(Request::make(1, 2));
  const auto counts = pair_counts_sorted(t);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].second, 5u);
  EXPECT_EQ(counts[1].second, 2u);
  EXPECT_EQ(counts[0].first, pair_key(0, 1));
}

TEST(Stats, PairCountsBreakTiesByAscendingKey) {
  // Three pairs of two requests each and one of three, touched in
  // descending key order: the tied pairs come back ascending.
  Trace t(6, "ties");
  for (int round = 0; round < 2; ++round) {
    t.push_back(Request::make(4, 5));
    t.push_back(Request::make(2, 3));
    t.push_back(Request::make(0, 5));
  }
  for (int i = 0; i < 3; ++i) t.push_back(Request::make(1, 2));
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {pair_key(1, 2), 3},
      {pair_key(0, 5), 2},
      {pair_key(2, 3), 2},
      {pair_key(4, 5), 2}};
  EXPECT_EQ(pair_counts_sorted(t), expected);
}

TEST(Stats, LocalityWindowReachesBack64Requests) {
  // Request 0's pair recurs at request `gap`, with distinct filler pairs
  // between: within the window at a gap of 64, outside it at 65.  Every
  // other request is a first touch, so the hit count is 1 or 0.
  for (const std::size_t gap : {std::size_t{64}, std::size_t{65}}) {
    Trace t(20, "gap");
    std::vector<Request> filler;
    for (Rack u = 2; u < 20 && filler.size() < gap - 1; ++u)
      for (Rack v = u + 1; v < 20 && filler.size() < gap - 1; ++v)
        filler.push_back(Request::make(u, v));
    ASSERT_EQ(filler.size(), gap - 1);
    t.push_back(Request::make(0, 1));
    for (const Request& r : filler) t.push_back(r);
    t.push_back(Request::make(0, 1));
    const double hits = gap == 64 ? 1.0 : 0.0;
    EXPECT_EQ(compute_stats(t).locality_window64,
              hits / static_cast<double>(gap))
        << "gap " << gap;
  }
}

TEST(PairKey, RoundTripsAndCanonical) {
  const std::uint64_t k = pair_key(7, 3);
  EXPECT_EQ(k, pair_key(3, 7));
  EXPECT_EQ(pair_lo(k), 3u);
  EXPECT_EQ(pair_hi(k), 7u);
}

}  // namespace
