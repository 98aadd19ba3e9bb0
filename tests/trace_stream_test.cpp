// TraceStream suite: every stream_* producer is pinned by a golden CRC-32
// of its first 10^4 requests at a fixed seed, whatever the chunking of the
// pulls; MaterializedStream must mirror its trace; materialize() must carry
// the stream's sequence, name and rack universe; and a simulation over a
// one-block SharedTrace of the stream must land on the same ledger as a
// materialized one.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "trace/shared_trace.hpp"
#include "trace/trace_stream.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using rdcn::testing::drain;
using rdcn::testing::make_instance;

constexpr std::size_t kGoldenRacks = 32;
constexpr std::size_t kGoldenRequests = 10'000;

struct GoldenCase {
  std::string label;
  std::function<std::unique_ptr<trace::TraceStream>()> stream;
  std::uint32_t crc;  ///< CRC-32 of the 10^4 requests' (u, v) bytes
};

/// Every stream_* generator at a fixed seed.  The constants were recorded
/// when each stream was still checked request by request against a
/// one-shot generator, so they pin that historical sequence.
std::vector<GoldenCase> golden_cases() {
  constexpr std::size_t n = kGoldenRacks;
  constexpr std::size_t m = kGoldenRequests;
  const trace::FlowPoolParams flow{.candidate_pairs = 300,
                                   .zipf_skew = 1.1,
                                   .mean_burst_length = 12.0,
                                   .max_active_flows = 24,
                                   .new_flow_prob = 0.08,
                                   .drift_period = 2500,
                                   .drift_fraction = 0.2,
                                   .hub_fraction = 0.25,
                                   .hub_bias = 0.7,
                                   .noise_fraction = 0.2};
  auto facebook = [=](trace::FacebookCluster cluster, std::uint64_t seed) {
    return [=] {
      return trace::stream_facebook_like(cluster, n, m, Xoshiro256(seed));
    };
  };
  return {
      {"uniform", [=] { return trace::stream_uniform(n, m, Xoshiro256(1)); },
       0xb7bedc91u},
      {"zipf",
       [=] { return trace::stream_zipf_pairs(n, m, 1.2, Xoshiro256(2)); },
       0x45f54103u},
      {"hotspot",
       [=] {
         return trace::stream_hotspot(n, m, 0.25, 0.7, Xoshiro256(3));
       },
       0x25d3516du},
      {"permutation",
       [=] { return trace::stream_permutation(n, m, Xoshiro256(4)); },
       0x11eecee1u},
      {"flow_pool",
       [=] { return trace::stream_flow_pool(n, m, flow, Xoshiro256(5)); },
       0x93ec19b2u},
      {"elephant_mice",
       [=] {
         return trace::stream_elephant_mice(n, m, 12, 0.6, 18.0,
                                            Xoshiro256(6));
       },
       0x1f801d10u},
      {"round_robin_star",
       [=] { return trace::stream_round_robin_star(n, m, 5); }, 0x6e4026a0u},
      {"facebook_db", facebook(trace::FacebookCluster::kDatabase, 7),
       0x27f63e34u},
      {"facebook_web", facebook(trace::FacebookCluster::kWebService, 8),
       0x4b28c3aeu},
      {"facebook_hadoop", facebook(trace::FacebookCluster::kHadoop, 9),
       0xfac6f0ddu},
      {"microsoft",
       [=] { return trace::stream_microsoft_like(n, m, {}, Xoshiro256(10)); },
       0x38b33aaau},
  };
}

std::uint32_t crc_of(const std::vector<trace::Request>& requests) {
  std::uint32_t crc = 0;
  for (const trace::Request& r : requests) {
    const std::uint32_t uv[2] = {r.u, r.v};
    crc = crc32(uv, sizeof uv, crc);
  }
  return crc;
}

void expect_same_sequence(const trace::Trace& expected,
                          const std::vector<trace::Request>& got,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].u, got[i].u) << label << " at " << i;
    ASSERT_EQ(expected[i].v, got[i].v) << label << " at " << i;
  }
}

TEST(TraceStream, EveryGeneratorMatchesItsGoldenChecksum) {
  for (const GoldenCase& c : golden_cases()) {
    auto stream = c.stream();
    EXPECT_EQ(stream->num_racks(), kGoldenRacks) << c.label;
    EXPECT_EQ(stream->total(), kGoldenRequests) << c.label;
    // A prime chunk size misaligns with every internal structure (bursts,
    // drift periods, production blocks).
    const std::vector<trace::Request> got = drain(*stream, 997);
    EXPECT_EQ(stream->produced(), kGoldenRequests) << c.label;
    ASSERT_EQ(got.size(), kGoldenRequests) << c.label;
    EXPECT_EQ(crc_of(got), c.crc)
        << c.label << ": got 0x" << std::hex << crc_of(got);
  }
}

TEST(TraceStream, ChunkingPatternDoesNotChangeTheSequence) {
  // Single-request pulls and one huge pull produce the same sequence.
  constexpr std::size_t kRacks = 16;
  constexpr std::size_t kRequests = 2000;
  auto one = trace::stream_zipf_pairs(kRacks, kRequests, 1.0, Xoshiro256(5));
  auto big = trace::stream_zipf_pairs(kRacks, kRequests, 1.0, Xoshiro256(5));

  std::vector<trace::Request> from_one(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_EQ(one->next(&from_one[i], 1), 1u);
  std::vector<trace::Request> from_big(kRequests);
  ASSERT_EQ(big->next(from_big.data(), kRequests + 500), kRequests);
  EXPECT_EQ(big->next(from_big.data(), 1), 0u);  // exhausted
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(from_one[i], from_big[i]) << i;
  }
}

TEST(TraceStream, DoesNotAdvanceTheCallersRng) {
  Xoshiro256 rng(11);
  auto stream = trace::stream_uniform(16, 1000, rng);
  std::vector<trace::Request> chunk(1000);
  stream->next(chunk.data(), chunk.size());
  Xoshiro256 untouched(11);
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(TraceStream, MaterializedStreamMirrorsItsTrace) {
  const trace::Trace t =
      trace::materialize(*trace::stream_uniform(16, 5000, Xoshiro256(3)));
  trace::MaterializedStream stream{trace::Trace(t)};
  EXPECT_EQ(stream.total(), t.size());
  expect_same_sequence(t, drain(stream, 640), "materialized");
}

TEST(TraceStream, MaterializeCarriesSequenceNameAndRacks) {
  auto stream = trace::stream_hotspot(20, 4000, 0.3, 0.6, Xoshiro256(9));
  const trace::Trace via_materialize = trace::materialize(*stream);
  EXPECT_EQ(stream->produced(), 4000u);
  EXPECT_EQ(via_materialize.name(), "hotspot");
  EXPECT_EQ(via_materialize.num_racks(), 20u);
  auto again = trace::stream_hotspot(20, 4000, 0.3, 0.6, Xoshiro256(9));
  expect_same_sequence(via_materialize, drain(*again, 613), "materialize");
}

TEST(TraceStream, StreamedSimulationMatchesMaterializedLedger) {
  // Serving a trace produced while it is served, one block kept (never
  // materializing it), must land on the same ledger at every checkpoint as
  // the materialized run.
  const net::Topology topo = net::make_fat_tree(24);
  // Spans several production blocks, the last one partial.
  constexpr std::size_t kRequests = 2 * trace::kProduceBlock + 5'000;
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 24, kRequests, Xoshiro256(41)));
  const core::Instance inst = make_instance(topo.distances, 4, 30);
  const std::vector<std::uint64_t> grid = sim::checkpoint_grid(t.size(), 6);

  for (const char* algorithm : {"bma", "r_bma", "greedy"}) {
    auto from_trace = scenario::make_algorithm(algorithm, inst, &t, 2);
    const sim::RunResult materialized =
        sim::run_simulation(*from_trace, t, grid);

    auto stream = trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, 24, kRequests, Xoshiro256(41));
    trace::SharedTrace one_block(*stream, trace::SharedTrace::Keep::kOneBlock);
    auto from_stream = scenario::make_algorithm(algorithm, inst, &t, 2);
    const sim::RunResult streamed =
        sim::run_simulation(*from_stream, one_block, grid);

    ASSERT_EQ(materialized.checkpoints.size(), streamed.checkpoints.size());
    for (std::size_t i = 0; i < materialized.checkpoints.size(); ++i) {
      const sim::Checkpoint& a = materialized.checkpoints[i];
      const sim::Checkpoint& b = streamed.checkpoints[i];
      EXPECT_EQ(a.requests, b.requests) << algorithm << " cp " << i;
      EXPECT_EQ(a.routing_cost, b.routing_cost) << algorithm << " cp " << i;
      EXPECT_EQ(a.reconfig_cost, b.reconfig_cost) << algorithm << " cp " << i;
      EXPECT_EQ(a.direct_serves, b.direct_serves) << algorithm << " cp " << i;
      EXPECT_EQ(a.matching_size, b.matching_size) << algorithm << " cp " << i;
    }
  }
}

}  // namespace
