// Tests for the scenario registries (scenario/registry.hpp): completeness
// (every registered name constructs and is deterministic under a fixed
// seed), unknown-name/parameter diagnostics, spec-list splitting, and the
// generated catalog.
#include <gtest/gtest.h>

#include <fstream>
#include <utility>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"
#include "trace/trace_stream.hpp"

namespace {

using namespace rdcn;
using scenario::AlgorithmRegistry;
using scenario::TopologyRegistry;
using scenario::WorkloadRegistry;
using rdcn::testing::make_instance;

TEST(AlgorithmRegistry, EveryEntryConstructsAndIsDeterministicUnderSeed) {
  const auto d = net::DistanceMatrix::uniform(16, 3);
  Xoshiro256 rng(7);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(16, 2'000, 1.1, rng));
  for (const std::string& name : AlgorithmRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const core::Instance inst = make_instance(d, 2, 8);
    auto a = scenario::make_algorithm(name, inst, &t, /*seed=*/5);
    auto b = scenario::make_algorithm(name, inst, &t, /*seed=*/5);
    ASSERT_NE(a, nullptr);
    for (const core::Request& r : t) {
      a->serve(r);
      b->serve(r);
    }
    EXPECT_EQ(a->costs().routing_cost, b->costs().routing_cost);
    EXPECT_EQ(a->costs().reconfig_cost, b->costs().reconfig_cost);
    EXPECT_EQ(a->costs().edge_adds, b->costs().edge_adds);
    EXPECT_EQ(a->costs().edge_removals, b->costs().edge_removals);
    EXPECT_GT(a->costs().requests, 0u);
  }
}

TEST(TopologyRegistry, EveryEntryBuildsAValidNetwork) {
  for (const std::string& name : TopologyRegistry::instance().names()) {
    SCOPED_TRACE(name);
    Xoshiro256 rng(3);
    const net::Topology topo =
        scenario::make_topology(name, /*racks=*/16, rng);
    ASSERT_GT(topo.num_racks(), 0u);
    EXPECT_FALSE(topo.name.empty());
    // Distances: zero diagonal, symmetric, positive off-diagonal.
    for (std::size_t u = 0; u < topo.num_racks(); ++u) {
      EXPECT_EQ(topo.distances(u, u), 0);
      for (std::size_t v = u + 1; v < topo.num_racks(); ++v) {
        EXPECT_EQ(topo.distances(u, v), topo.distances(v, u));
        EXPECT_GT(topo.distances(u, v), 0);
      }
    }
  }
}

TEST(WorkloadRegistry, EveryGeneratorIsSeedDeterministic) {
  for (const std::string& name : WorkloadRegistry::instance().names()) {
    if (name == "csv") continue;  // file import, covered below
    SCOPED_TRACE(name);
    Xoshiro256 rng_a(11), rng_b(11);
    const trace::Trace a =
        scenario::make_workload(name, /*racks=*/16, /*requests=*/500, rng_a);
    const trace::Trace b =
        scenario::make_workload(name, /*racks=*/16, /*requests=*/500, rng_b);
    ASSERT_EQ(a.size(), 500u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_LE(a.num_racks(), 16u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].u, b[i].u);
      EXPECT_EQ(a[i].v, b[i].v);
    }
  }
}

TEST(WorkloadRegistry, CsvImportWithLimit) {
  const std::string path = ::testing::TempDir() + "rdcn_registry_test.csv";
  {
    std::ofstream out(path);
    out << "# racks=4 name=imported\n";
    for (int i = 0; i < 10; ++i) out << "0," << 1 + i % 3 << "\n";
  }
  Xoshiro256 rng(1);
  const trace::Trace all =
      scenario::make_workload("csv:path=" + path, 4, 0, rng);
  EXPECT_EQ(all.size(), 10u);
  const trace::Trace limited =
      scenario::make_workload("csv:path=" + path + ",limit=4", 4, 0, rng);
  EXPECT_EQ(limited.size(), 4u);
}

TEST(WorkloadRegistry, EveryWorkloadStreamsAndMakeMaterializesTheStream) {
  // Every workload, the csv import included, builds as a stream, and make()
  // returns exactly materialize(make_stream()) for the same rng state —
  // without advancing the caller's generator either way.
  const std::string path = ::testing::TempDir() + "rdcn_registry_stream.csv";
  {
    std::ofstream out(path);
    out << "# racks=20 name=imported\n";
    for (int i = 0; i < 3'000; ++i)
      out << i % 20 << "," << (i + 7) % 20 << "\n";
  }
  const WorkloadRegistry& registry = WorkloadRegistry::instance();
  for (const std::string& name : registry.names()) {
    SCOPED_TRACE(name);
    Spec spec{name, {}};
    if (name == "csv") spec.params.set("path", path);
    Xoshiro256 rng(91);
    const Xoshiro256 snapshot = rng;
    auto stream = registry.make_stream(spec, /*racks=*/20,
                                       /*requests=*/3'000, rng);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->total(), 3'000u);
    const trace::Trace made = registry.make(spec, 20, 3'000, rng);
    // The snapshot convention: the caller's rng must not have advanced.
    EXPECT_EQ(rng.next(), Xoshiro256(snapshot).next());
    const trace::Trace streamed = trace::materialize(*stream);
    EXPECT_EQ(streamed.name(), made.name());
    EXPECT_EQ(streamed.num_racks(), made.num_racks());
    ASSERT_EQ(streamed.size(), made.size());
    for (std::size_t i = 0; i < made.size(); ++i) {
      ASSERT_EQ(streamed[i], made[i]) << "request " << i;
    }
  }
}

TEST(Registries, UnknownNamesSuggestNearestMatch) {
  try {
    Xoshiro256 rng(1);
    scenario::make_topology("torsu", 9, rng);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'torus'"),
              std::string::npos);
  }
  try {
    const auto d = net::DistanceMatrix::uniform(4, 1);
    scenario::make_algorithm("r_mba", make_instance(d, 1, 1));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'r_bma'"),
              std::string::npos);
  }
  // Each workload has one name: round_robin_star has no alias.
  Xoshiro256 rng(2);
  EXPECT_THROW(scenario::make_workload("round_robin:k=3", 8, 100, rng),
               SpecError);
}

TEST(Registries, UnknownParametersAreRejectedWithSuggestion) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  const std::pair<const char*, const char*> cases[] = {
      {"r_bma:enginee=lru", "did you mean 'engine'"},
      {"r_bma:trust=0.8", "unknown parameter 'trust'"},
      {"so_bma:passes=2", "unknown parameter 'passes'"},
      {"so_bma:local_search=false", "unknown parameter 'local_search'"},
      {"offline_dynamic:local_search=true", "unknown parameter 'local_search'"},
  };
  for (const auto& [spec, want] : cases) {
    try {
      scenario::make_algorithm(spec, make_instance(d, 1, 1));
      ADD_FAILURE() << spec << ": expected SpecError";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
  // Parameter-free components reject any parameter.
  EXPECT_THROW(scenario::make_algorithm("bma:x=1", make_instance(d, 1, 1)),
               SpecError);
}

TEST(Registries, AlgorithmParametersReachTheAlgorithm) {
  const auto d = net::DistanceMatrix::uniform(8, 4);
  Xoshiro256 rng(3);
  const trace::Trace t =
      trace::materialize(*trace::stream_zipf_pairs(8, 3'000, 1.2, rng));
  const core::Instance inst = make_instance(d, 2, 6);
  // RBma::name() echoes engine and eviction mode — the parameters
  // observably reached the constructed algorithm.
  EXPECT_EQ(scenario::make_algorithm("r_bma", inst)->name(),
            "r_bma[marking,lazy]");
  EXPECT_EQ(scenario::make_algorithm("r_bma:engine=lru", inst)->name(),
            "r_bma[lru,lazy]");
  EXPECT_EQ(scenario::make_algorithm("r_bma:engine=lru,eager", inst)->name(),
            "r_bma[lru,eager]");

  // offline_dynamic's window parameter changes the epoch plan.
  auto windowed =
      scenario::make_algorithm("offline_dynamic:window=500", inst, &t, 5);
  auto whole =
      scenario::make_algorithm("offline_dynamic:window=100000", inst, &t, 5);
  for (const core::Request& r : t) {
    windowed->serve(r);
    whole->serve(r);
  }
  EXPECT_NE(windowed->costs().total_cost(), whole->costs().total_cost());
}

TEST(Registries, ParseAlgorithmListSplitsOnNamesNotCommas) {
  const auto specs =
      scenario::parse_algorithm_list("r_bma:engine=lru,eager,bma,so_bma:passes=2");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "r_bma");
  EXPECT_EQ(specs[0].params.to_string(), "engine=lru,eager");
  EXPECT_EQ(specs[1].name, "bma");
  EXPECT_TRUE(specs[1].params.empty());
  EXPECT_EQ(specs[2].name, "so_bma");
  EXPECT_EQ(specs[2].params.to_string(), "passes=2");
}

TEST(Registries, ParseAlgorithmListTrimsSegments) {
  // A space after a comma must not demote an algorithm to a parameter.
  const auto specs = scenario::parse_algorithm_list("r_bma, bma ,  greedy");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "r_bma");
  EXPECT_EQ(specs[1].name, "bma");
  EXPECT_EQ(specs[2].name, "greedy");
}

TEST(Registries, CsvWithMissingFileThrowsInsteadOfAborting) {
  Xoshiro256 rng(1);
  EXPECT_THROW(
      scenario::make_workload("csv:path=/nonexistent/rdcn/x.csv", 4, 0, rng),
      SpecError);
}

TEST(Registries, WorkloadAddedThroughAddRunsFromAScenarioSpec) {
  // Registry::add is the extension path: a workload added under a new
  // name is addressable from a ScenarioSpec like a built-in, and its
  // documented parameter reaches the builder.
  const std::string name = "scenario_registry_test_one_pair";
  WorkloadRegistry& workloads = WorkloadRegistry::instance();
  if (workloads.find(name) == nullptr) {
    workloads.add(
        name, {"every request is the pair {0, far}",
               {{"far", "the other rack of the pair", "1"}},
               [](std::size_t racks, std::size_t requests,
                  const ParamMap& params,
                  const Xoshiro256&) -> std::unique_ptr<trace::TraceStream> {
                 const auto far = static_cast<trace::Rack>(
                     params.get<std::size_t>("far", 1));
                 trace::Trace t(racks, "one_pair");
                 for (std::size_t i = 0; i < requests; ++i)
                   t.push_back(trace::Request::make(0, far));
                 return std::make_unique<trace::MaterializedStream>(
                     std::move(t));
               }});
  }
  const scenario::ScenarioResult result =
      scenario::run_scenario(scenario::ScenarioSpec::parse(
          "workload=" + name +
          ":far=5;algorithms=oblivious;racks=8;requests=400;checkpoints=4"));
  ASSERT_EQ(result.runs.size(), 1u);
  const sim::Checkpoint& ledger = result.runs[0].final();
  EXPECT_EQ(ledger.requests, 400u);
  EXPECT_EQ(ledger.routing_cost, 400u * result.topology.distances(0, 5));
}

TEST(Registries, CatalogListsEveryRegisteredName) {
  const std::string catalog = scenario::catalog_text();
  std::vector<std::string> all = AlgorithmRegistry::instance().names();
  for (const std::string& n : TopologyRegistry::instance().names())
    all.push_back(n);
  for (const std::string& n : WorkloadRegistry::instance().names())
    all.push_back(n);
  for (const std::string& name : all)
    EXPECT_NE(catalog.find(name), std::string::npos) << name;
  // Parameter docs are part of the generated text.
  EXPECT_NE(catalog.find("engine=marking"), std::string::npos);
  EXPECT_NE(catalog.find("skew=1.0"), std::string::npos);
}

}  // namespace
