// Tests for the scenario runner (scenario/scenario.hpp): ScenarioSpec
// parse/print goldens, end-to-end run_scenario (the materialize-or-stream
// rule, one workload build per run, inputs that must be SpecErrors),
// b-independence handling, and the run_matrix cross product.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "scenario/scenario.hpp"
#include "sim/report.hpp"
#include "trace/generators.hpp"

namespace {

using namespace rdcn;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;

// The canonical one-line form is a public contract (drivers echo it, logs
// and sweep tooling parse it) — pin it exactly.
TEST(ScenarioSpec, GoldenCanonicalForm) {
  ScenarioSpec spec;
  spec.topology = Spec::parse("torus:rows=5,cols=10");
  spec.workload = Spec::parse("flow_pool:pairs=2000,skew=1.2");
  spec.algorithms = {Spec::parse("r_bma:engine=lru"), Spec::parse("bma")};
  spec.cache_sizes = {6, 12};
  spec.racks = 50;
  spec.requests = 30'000;
  spec.alpha = 60;
  spec.trials = 3;
  spec.checkpoints = 4;
  spec.seed = 7;
  const std::string golden =
      "topology=torus:rows=5,cols=10;"
      "workload=flow_pool:pairs=2000,skew=1.2;"
      "algorithms=r_bma:engine=lru,bma;"
      "b=6,12;racks=50;requests=30000;a=0;alpha=60;trials=3;checkpoints=4;"
      "seed=7";
  EXPECT_EQ(spec.to_string(), golden);
}

TEST(ScenarioSpec, ParseRoundTripsThroughToString) {
  const std::string text =
      "topology=torus:rows=5,cols=10;"
      "workload=flow_pool:pairs=2000,skew=1.2;"
      "algorithms=r_bma:engine=lru,bma;"
      "b=6,12;racks=50;requests=30000;a=0;alpha=60;trials=3;checkpoints=4;"
      "seed=7";
  const ScenarioSpec spec = ScenarioSpec::parse(text);
  EXPECT_EQ(spec.to_string(), text);
  EXPECT_EQ(spec.topology.name, "torus");
  EXPECT_EQ(spec.workload.params.get<double>("skew"), 1.2);
  ASSERT_EQ(spec.algorithms.size(), 2u);
  EXPECT_EQ(spec.algorithms[0].params.get<std::string>("engine"), "lru");
  ASSERT_EQ(spec.cache_sizes.size(), 2u);
  EXPECT_EQ(spec.cache_sizes[1], 12u);
}

TEST(ScenarioSpec, PinnedThreadCountRoundTrips) {
  // threads=0 (hardware concurrency) is omitted from the canonical form;
  // an explicitly pinned count must survive the round-trip.
  const ScenarioSpec spec = ScenarioSpec::parse("threads=4");
  EXPECT_NE(spec.to_string().find(";threads=4"), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(spec.to_string()).threads, 4u);
}

TEST(ScenarioSpec, CanonicalStringIsParamOrderInsensitive) {
  // The serving cache keys on canonical_string(): permuting any
  // component's parameters must not change it.
  const ScenarioSpec a = ScenarioSpec::parse(
      "topology=torus:rows=5,cols=10;workload=flow_pool:pairs=200,skew=1.2;"
      "algorithms=r_bma:engine=lru,bma;b=6,12;racks=50;requests=1000");
  const ScenarioSpec b = ScenarioSpec::parse(
      "topology=torus:cols=10,rows=5;workload=flow_pool:skew=1.2,pairs=200;"
      "algorithms=r_bma:engine=lru,bma;b=6,12;racks=50;requests=1000");
  EXPECT_EQ(a.canonical_string(), b.canonical_string());
  // Canonical text is itself parseable and canonicalizes to itself.
  EXPECT_EQ(ScenarioSpec::parse(a.canonical_string()).canonical_string(),
            a.canonical_string());
}

TEST(ScenarioSpec, CanonicalStringDropsThreadsButKeepsOrderOfLists) {
  // threads is an execution detail, not experiment identity; algorithm
  // and b order determine result column order, so they ARE identity.
  const ScenarioSpec pinned = ScenarioSpec::parse("racks=8;threads=4");
  const ScenarioSpec free_threads = ScenarioSpec::parse("racks=8");
  EXPECT_EQ(pinned.canonical_string(), free_threads.canonical_string());
  EXPECT_EQ(pinned.canonical_string().find("threads"), std::string::npos);

  const ScenarioSpec ab =
      ScenarioSpec::parse("algorithms=r_bma,bma;b=6,12;racks=8");
  const ScenarioSpec ba =
      ScenarioSpec::parse("algorithms=bma,r_bma;b=12,6;racks=8");
  EXPECT_NE(ab.canonical_string(), ba.canonical_string());
}

TEST(ScenarioSpec, DefaultsAreAppliedOnResolve) {
  const ScenarioSpec spec = ScenarioSpec::parse("racks=20;requests=1000");
  const ScenarioSpec r = spec.resolved();
  EXPECT_EQ(r.topology.name, "fat_tree");
  EXPECT_EQ(r.workload.name, "facebook_db");
  ASSERT_EQ(r.algorithms.size(), 3u);  // r_bma, bma, oblivious
  ASSERT_EQ(r.cache_sizes.size(), 1u);
  EXPECT_EQ(r.cache_sizes[0], 12u);
}

TEST(ScenarioSpec, MalformedFieldsThrow) {
  EXPECT_THROW(ScenarioSpec::parse("racks"), SpecError);        // no '='
  EXPECT_THROW(ScenarioSpec::parse("bogus=1"), SpecError);      // unknown key
  EXPECT_THROW(ScenarioSpec::parse("racks=ten"), SpecError);    // bad value
  EXPECT_THROW(ScenarioSpec::parse("b=2;racks=8;b=4"),          // typo'd dup
               SpecError);
  EXPECT_THROW(ScenarioSpec::parse("b=4x"), SpecError);  // trailing garbage
  EXPECT_THROW(ScenarioSpec::parse("requests=-1"), SpecError);  // negative
}

TEST(ScenarioSpec, ParamMapFormReadsTheSameFieldsAsText) {
  // rdcn_sim passes its flags as a ParamMap; a spec string splits into
  // one.  Both must give the same spec, defaults and errors included.
  const char* argv[] = {"rdcn_sim",
                        "--topology=torus:rows=5,cols=10",
                        "--algorithms=r_bma:engine=lru,bma",
                        "--b", "6,12",
                        "--racks=50",
                        "--seed=7",
                        "--threads=2"};
  const ParamMap flags = ParamMap::from_args(8, argv);
  EXPECT_EQ(ScenarioSpec::parse(flags).to_string(),
            ScenarioSpec::parse("topology=torus:rows=5,cols=10;"
                                "algorithms=r_bma:engine=lru,bma;b=6,12;"
                                "racks=50;seed=7;threads=2")
                .to_string());
  EXPECT_EQ(ScenarioSpec::parse(ParamMap{}).to_string(),
            ScenarioSpec{}.to_string());

  // A key no field reads is an error naming it, not a silent default.
  ParamMap unknown;
  unknown.set("racks", "8");
  unknown.set("metric", "total_cost");
  try {
    ScenarioSpec::parse(unknown);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("'metric'"), std::string::npos)
        << e.what();
  }
  // ... unless the caller consumed it first, as rdcn_sim does with its
  // own flags.
  EXPECT_EQ(unknown.get<std::string>("metric"), "total_cost");
  EXPECT_EQ(ScenarioSpec::parse(unknown).racks, 8u);
}

TEST(RunScenario, EndToEndProducesOneRunPerAlgorithmTimesB) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=leaf_spine:spines=4;workload=zipf:skew=1.1;"
      "algorithms=r_bma:engine=lru,bma;b=2,4;racks=12;requests=4000;"
      "alpha=8;trials=2;checkpoints=4;seed=5");
  const ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_EQ(result.topology.num_racks(), 12u);
  EXPECT_EQ(result.workload.size(), 4000u);
  ASSERT_EQ(result.runs.size(), 4u);  // 2 algorithms × 2 cache sizes
  EXPECT_EQ(result.runs[0].algorithm, "r_bma:engine=lru(b=2)");
  EXPECT_EQ(result.runs[1].algorithm, "r_bma:engine=lru(b=4)");
  EXPECT_EQ(result.runs[2].algorithm, "bma(b=2)");
  EXPECT_EQ(result.runs[3].algorithm, "bma(b=4)");
  for (const sim::RunResult& r : result.runs) {
    ASSERT_EQ(r.checkpoints.size(), 4u);
    EXPECT_GT(r.final().routing_cost, 0u);
  }
}

TEST(RunScenario, IsSeedReproducible) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=expander:degree=3;workload=flow_pool:pairs=50;"
      "algorithms=r_bma;b=2;racks=10;requests=2000;trials=2;checkpoints=2;"
      "seed=9");
  const ScenarioResult a = scenario::run_scenario(spec);
  const ScenarioResult b = scenario::run_scenario(spec);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].final().routing_cost,
              b.runs[i].final().routing_cost);
    EXPECT_EQ(a.runs[i].final().reconfig_cost,
              b.runs[i].final().reconfig_cost);
  }
}

TEST(RunScenario, EveryColumnOfAMultiTaskCellEqualsTheColumnRunAlone) {
  // A multi-task cell materializes its trace once; a column run alone is a
  // single task and replays the workload stream.  Both must serve the same
  // requests, so every checkpoint of every column agrees.
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=leaf_spine:spines=4;workload=flow_pool:pairs=60,skew=1.2;"
      "algorithms=r_bma:engine=lru,bma,rotor,greedy;b=2,4;racks=12;"
      "requests=5000;alpha=10;trials=1;checkpoints=5;seed=11");
  const ScenarioResult cell = scenario::run_scenario(spec);
  EXPECT_EQ(cell.workload.size(), 5000u);  // materialized
  ASSERT_EQ(cell.runs.size(), 8u);
  std::size_t column = 0;
  for (const Spec& algorithm : spec.algorithms) {
    for (const std::size_t b : spec.cache_sizes) {
      ScenarioSpec alone = spec;
      alone.algorithms = {algorithm};
      alone.cache_sizes = {b};
      const ScenarioResult single = scenario::run_scenario(alone);
      ASSERT_EQ(single.runs.size(), 1u);
      const sim::RunResult& m = cell.runs[column++];
      const sim::RunResult& s = single.runs[0];
      EXPECT_EQ(s.algorithm, m.algorithm);
      EXPECT_EQ(s.seed, m.seed);
      ASSERT_EQ(s.checkpoints.size(), m.checkpoints.size()) << m.algorithm;
      for (std::size_t c = 0; c < m.checkpoints.size(); ++c) {
        EXPECT_EQ(s.checkpoints[c].requests, m.checkpoints[c].requests);
        EXPECT_EQ(s.checkpoints[c].routing_cost,
                  m.checkpoints[c].routing_cost)
            << m.algorithm << " cp " << c;
        EXPECT_EQ(s.checkpoints[c].reconfig_cost,
                  m.checkpoints[c].reconfig_cost)
            << m.algorithm << " cp " << c;
        EXPECT_EQ(s.checkpoints[c].matching_size,
                  m.checkpoints[c].matching_size)
            << m.algorithm << " cp " << c;
      }
    }
  }
}

TEST(RunScenario, AColumnRunAloneStreams) {
  // One online task: the workload is replayed as a stream, so no trace is
  // held — the result carries only its name and rack universe.
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=leaf_spine:spines=4;workload=flow_pool:pairs=60;"
      "algorithms=bma;b=2;racks=12;requests=5000;checkpoints=5;seed=11");
  const ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_TRUE(result.workload.empty());
  EXPECT_EQ(result.workload.name(), "flow_pool");
  EXPECT_EQ(result.workload.num_racks(), 12u);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].final().requests, 5000u);
}

TEST(RunScenario, LoneOfflineAndCsvTasksRun) {
  // An offline comparator alone still gets the full trace (the cell
  // materializes for it); a csv import alone streams its owned trace.
  const ScenarioResult offline = scenario::run_scenario(ScenarioSpec::parse(
      "workload=uniform;algorithms=so_bma;b=2;racks=8;requests=500;"
      "checkpoints=2;seed=3"));
  EXPECT_EQ(offline.workload.size(), 500u);
  ASSERT_EQ(offline.runs.size(), 1u);
  EXPECT_EQ(offline.runs[0].final().requests, 500u);

  const std::string path = ::testing::TempDir() + "rdcn_scenario_lone.csv";
  {
    std::ofstream out(path);
    out << "# racks=8 name=imported\n";
    for (int i = 0; i < 40; ++i) out << i % 8 << "," << (i + 3) % 8 << "\n";
  }
  ScenarioSpec csv = ScenarioSpec::parse(
      "algorithms=bma;b=2;racks=8;requests=500;checkpoints=4;seed=3");
  csv.workload = Spec{"csv", {}};
  csv.workload.params.set("path", path);
  const ScenarioResult imported = scenario::run_scenario(csv);
  EXPECT_TRUE(imported.workload.empty());
  EXPECT_EQ(imported.workload.name(), "imported");
  ASSERT_EQ(imported.runs.size(), 1u);
  EXPECT_EQ(imported.runs[0].final().requests, 40u);
}

// A workload that counts how often its builder runs.
std::atomic<int> g_counted_builds{0};

RDCN_REGISTER_WORKLOAD(counted_uniform,
                       {"uniform pairs; counts its builder calls",
                        {},
                        [](std::size_t racks, std::size_t requests,
                           const ParamMap&, const Xoshiro256& rng) {
                          ++g_counted_builds;
                          return trace::stream_uniform(racks, requests, rng);
                        }});

TEST(RunScenario, BuildsTheWorkloadStreamExactlyOnce) {
  // Neither a single streamed task nor a materialized multi-task cell may
  // build the generator more than once.
  const std::string shape =
      "workload=counted_uniform;racks=8;requests=2000;checkpoints=4;seed=5;";
  g_counted_builds = 0;
  (void)scenario::run_scenario(
      ScenarioSpec::parse(shape + "algorithms=bma;b=2"));
  EXPECT_EQ(g_counted_builds.load(), 1);
  g_counted_builds = 0;
  (void)scenario::run_scenario(
      ScenarioSpec::parse(shape + "algorithms=r_bma,bma;b=2,4;trials=3"));
  EXPECT_EQ(g_counted_builds.load(), 1);
}

TEST(RunScenario, InputsNoRunSurvivesAreSpecErrors) {
  // Each of these used to abort the process (and with it a serving
  // daemon); they must surface as SpecError instead.
  const std::string short_csv =
      ::testing::TempDir() + "rdcn_scenario_short.csv";
  {
    std::ofstream out(short_csv);
    out << "0,1\n1,2\n2,3\n";
  }
  const std::string empty_csv =
      ::testing::TempDir() + "rdcn_scenario_empty.csv";
  { std::ofstream out(empty_csv); }
  for (const std::string& file : {short_csv, empty_csv}) {
    // One task (streamed) and two (materialized).
    for (const std::string b : {"2", "2,4"}) {
      SCOPED_TRACE(file + " b=" + b);
      ScenarioSpec spec =
          ScenarioSpec::parse("algorithms=bma;racks=8;b=" + b);
      spec.workload = Spec{"csv", {}};
      spec.workload.params.set("path", file);
      EXPECT_THROW((void)scenario::run_scenario(spec), SpecError);
    }
  }
  for (const char* text :
       {"racks=1;algorithms=bma;b=2", "requests=0;algorithms=bma;b=2",
        "requests=3;checkpoints=8;algorithms=bma;b=2",
        "checkpoints=0;algorithms=bma;b=2",
        // R-BMA's ⌈α/ℓ⌉ would wrap and the ledger with it.
        "alpha=18446744073709551615;algorithms=r_bma;b=2"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)scenario::run_scenario(ScenarioSpec::parse(text)),
                 SpecError);
  }
}

TEST(RunScenario, OutOfRangeParametersAreSpecErrors) {
  // Every one of these failed a parameter precondition deep in a topology,
  // workload or algorithm constructor and aborted (or, for hub_fraction=2,
  // crashed) the process — and a serving daemon with it.  Each case
  // overrides the base fields it names.
  const std::vector<std::string> base = {"racks=32", "requests=1000",
                                         "checkpoints=2", "algorithms=bma",
                                         "b=2"};
  for (const char* fields : {
           "workload=hotspot:hot_fraction=1.5",
           "workload=hotspot:hot_share=-1",
           "workload=flow_pool:pairs=0",
           "workload=flow_pool:burst=0.5",
           "workload=flow_pool:active=0",
           "workload=flow_pool:skew=-2",
           "workload=flow_pool:hub_fraction=2",
           "workload=elephant_mice:elephants=0",
           "workload=elephant_mice:elephants=100000",
           "workload=elephant_mice:share=2",
           "workload=elephant_mice:run=0",
           "workload=round_robin:k=0",
           "workload=round_robin:k=500",
           "workload=zipf:skew=-1",
           "workload=microsoft:rack_skew=2000",
           "workload=permutation;racks=101",
           "workload=hotspot;topology=complete;racks=3",
           "topology=fat_tree:k=3",
           "topology=expander:degree=0",
           "topology=expander:degree=1",
           "topology=expander:degree=40",
           "topology=expander:degree=3;racks=33",
           "topology=leaf_spine:spines=0",
           "topology=torus:rows=2",
           "topology=torus:rows=100",
           "topology=hypercube:dim=21",
           "topology=ring;racks=2",
           "algorithms=offline_dynamic:window=0",
           "algorithms=rotor:slot=0",
           "b=0",
       }) {
    std::string text = fields;
    for (const std::string& field : base) {
      const std::string key = field.substr(0, field.find('=') + 1);
      if (text.rfind(key, 0) != 0 && text.find(";" + key) == std::string::npos)
        text += ";" + field;
    }
    SCOPED_TRACE(text);
    EXPECT_THROW((void)scenario::run_scenario(ScenarioSpec::parse(text)),
                 SpecError);
  }
}

TEST(RunScenario, BIndependentAlgorithmsRunOncePerSweep) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "workload=uniform;algorithms=bma,oblivious;b=2,4,8;racks=8;"
      "requests=1000;checkpoints=2;seed=3");
  const ScenarioResult result = scenario::run_scenario(spec);
  // bma contributes 3 columns, oblivious exactly one.
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.runs.back().algorithm, "oblivious(b=2)");
}

TEST(RunScenario, GeneratedWorkloadClampsToTopologyRacks) {
  // A 2^3=8-rack hypercube cannot host a 12-rack workload; generated
  // workloads clamp to what the network provides instead of erroring, so
  // explicit topology dimensions always yield a runnable scenario.
  const ScenarioSpec spec = ScenarioSpec::parse(
      "topology=hypercube:dim=3;workload=uniform;algorithms=bma;racks=12;"
      "requests=100;checkpoints=2");
  const ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_EQ(result.topology.num_racks(), 8u);
  EXPECT_EQ(result.workload.num_racks(), 8u);
}

TEST(RunScenario, OversizedImportedWorkloadIsRejected) {
  // CSV imports carry their own rack universe and cannot be clamped.
  const std::string path = ::testing::TempDir() + "rdcn_scenario_test.csv";
  {
    std::ofstream out(path);
    out << "# racks=12 name=too_big\n0,11\n1,10\n";
  }
  ScenarioSpec spec = ScenarioSpec::parse(
      "topology=hypercube:dim=3;algorithms=bma;racks=12;requests=100");
  spec.workload.name = "csv";
  spec.workload.params.set("path", path);
  EXPECT_THROW(scenario::run_scenario(spec), SpecError);
}

TEST(RunMatrix, CrossesTopologiesWithWorkloads) {
  // Even rack count (permutation requires it); torus needs >= 3x3.
  ScenarioSpec base = ScenarioSpec::parse(
      "algorithms=bma;b=2;racks=12;requests=800;checkpoints=2;seed=2");
  const std::vector<Spec> topologies = {Spec::parse("ring"),
                                        Spec::parse("torus:rows=3,cols=4")};
  const std::vector<Spec> workloads = {Spec::parse("uniform"),
                                       Spec::parse("zipf:skew=1.3"),
                                       Spec::parse("permutation")};
  const auto results = scenario::run_matrix(base, topologies, workloads);
  ASSERT_EQ(results.size(), 6u);  // 2 × 3, topology-major
  EXPECT_EQ(results[0].spec.topology.name, "ring");
  EXPECT_EQ(results[0].spec.workload.name, "uniform");
  EXPECT_EQ(results[4].spec.topology.name, "torus");
  EXPECT_EQ(results[4].spec.workload.name, "zipf");
  for (const ScenarioResult& r : results)
    EXPECT_EQ(r.runs.size(), 1u);
}

TEST(RunMatrix, ParallelExecutionIsThreadCountInvariant) {
  // The matrix shards cells across the thread pool; per-cell seeds derive
  // from the spec alone, so the emitted CSV must be byte-identical for any
  // thread count (wall_seconds is the only run field allowed to differ, and
  // the cost CSVs don't contain it).
  ScenarioSpec base = ScenarioSpec::parse(
      "algorithms=r_bma,bma;b=3;racks=12;requests=2000;trials=2;"
      "checkpoints=3;seed=11");
  const std::vector<Spec> topologies = {Spec::parse("ring"),
                                        Spec::parse("leaf_spine:spines=3")};
  const std::vector<Spec> workloads = {Spec::parse("uniform"),
                                       Spec::parse("zipf:skew=1.2")};

  const auto csv_of = [](const std::vector<ScenarioResult>& results) {
    std::ostringstream out;
    for (const ScenarioResult& r : results) {
      // Identify the cell by its experiment axes only — `threads` is an
      // execution detail and the one spec field allowed to differ.
      out << r.spec.topology.to_string() << "|"
          << r.spec.workload.to_string() << "\n";
      sim::write_csv(out, r.runs, sim::Metric::kTotalCost);
      sim::write_csv(out, r.runs, sim::Metric::kRoutingCost);
    }
    return out.str();
  };

  ScenarioSpec serial = base;
  serial.threads = 1;
  const std::string csv1 = csv_of(scenario::run_matrix(serial, topologies,
                                                       workloads));
  ScenarioSpec parallel = base;
  parallel.threads = 4;
  const std::string csv4 = csv_of(scenario::run_matrix(parallel, topologies,
                                                       workloads));
  EXPECT_EQ(csv1, csv4);
  EXPECT_GT(csv1.size(), 100u);  // sanity: non-empty output
}

TEST(RunMatrix, WorkerErrorsPropagateAsSpecError) {
  // A failure inside a sharded cell (here: a workload that needs more racks
  // than the topology provides) must surface as SpecError on the calling
  // thread, not terminate the pool.
  ScenarioSpec base = ScenarioSpec::parse(
      "algorithms=bma;b=2;racks=12;requests=500;checkpoints=2;seed=3");
  const std::vector<Spec> workloads = {
      Spec::parse("csv:path=/nonexistent/trace.csv")};
  EXPECT_THROW(scenario::run_matrix(base, {}, workloads), SpecError);
}

}  // namespace
