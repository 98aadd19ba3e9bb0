// SharedTrace suite: the trace a replay reads is produced by its readers,
// block by block, as they first need each block.  It must give the
// stream's exact sequence, name and rack universe; readers racing for
// unpublished blocks must each see the stream, and a one-block trace must
// too; a cancel must stop production within one block; an exception of
// the source must reach every reader that needs a missing block, and
// take(), as itself.  run_scenario's cells replay the trace while it is
// generated: at any thread count every column must equal run_experiment
// over the materialized trace, a cancel must stop generation within a
// block, and a failing workload must surface as its own exception.  Once
// the token fires, run_experiment builds no further matcher, over a Trace
// or a SharedTrace.  Runs under the tsan preset (label tier1_tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/param_map.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/facebook_like.hpp"
#include "trace/shared_trace.hpp"
#include "trace/trace_stream.hpp"
#include "test_util.hpp"

namespace {

using namespace rdcn;
using rdcn::testing::drain;
using scenario::ScenarioSpec;

constexpr std::size_t kBlock = trace::kProduceBlock;

/// A facebook_db stream that calls `before_pull(produced, n)` ahead of
/// every pull of n requests: a hook to slow the producer down, fire a
/// token or throw.
class HookedStream final : public trace::TraceStream {
 public:
  HookedStream(std::size_t racks, std::size_t requests,
               const Xoshiro256& rng,
               std::function<void(std::size_t produced, std::size_t n)>
                   before_pull)
      : TraceStream(racks, "hooked", requests),
        inner_(trace::stream_facebook_like(trace::FacebookCluster::kDatabase,
                                           racks, requests, rng)),
        before_pull_(std::move(before_pull)) {}

 protected:
  void produce(trace::Request* out, std::size_t n) override {
    before_pull_(produced(), n);
    std::size_t got = 0;
    while (got < n) got += inner_->next(out + got, n - got);
  }

 private:
  std::unique_ptr<trace::TraceStream> inner_;
  std::function<void(std::size_t, std::size_t)> before_pull_;
};

void sleep_a_little(std::size_t, std::size_t) {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

std::vector<trace::Request> reference_requests(std::size_t racks,
                                               std::size_t requests,
                                               std::uint64_t seed) {
  const auto stream = trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, racks, requests, Xoshiro256(seed));
  return drain(*stream, 613);
}

/// Reads `shared` front to back, `pull` requests at a time and never
/// across a block boundary (as run_simulation reads it).
std::vector<trace::Request> read_all(trace::SharedTrace& shared,
                                     std::size_t pull) {
  std::vector<trace::Request> out;
  while (out.size() < shared.total()) {
    const std::size_t begin = out.size();
    const std::span<const trace::Request> got = shared.requests(
        begin, std::min({pull, kBlock - begin % kBlock,
                         shared.total() - begin}));
    out.insert(out.end(), got.begin(), got.end());
  }
  return out;
}

// ---- SharedTrace ----------------------------------------------------------

TEST(SharedTrace, GivesTheStreamsSequenceNameAndRacks) {
  // 2.5 blocks: a partial last block.
  const std::size_t n = 2 * kBlock + kBlock / 2;
  const std::vector<trace::Request> expected = reference_requests(40, n, 3);
  const auto stream = trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 40, n, Xoshiro256(3));
  trace::SharedTrace shared(*stream);
  EXPECT_EQ(shared.total(), n);
  EXPECT_EQ(shared.num_racks(), 40u);
  EXPECT_EQ(shared.name(), stream->name());
  // Nothing is produced before a reader needs it, then one block.
  EXPECT_EQ(stream->produced(), 0u);
  EXPECT_EQ(shared.requests(0, 10)[3], expected[3]);
  EXPECT_EQ(stream->produced(), kBlock);
  const trace::Trace& whole = shared.complete();
  EXPECT_TRUE(std::equal(whole.begin(), whole.end(), expected.begin(),
                         expected.end()));
  const trace::Trace t = std::move(shared).take();
  EXPECT_EQ(t.num_racks(), 40u);
  EXPECT_EQ(t.name(), stream->name());
  EXPECT_TRUE(std::equal(t.begin(), t.end(), expected.begin(),
                         expected.end()));

  const auto again = trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, 40, n, Xoshiro256(3));
  const trace::Trace materialized = trace::materialize(*again);
  EXPECT_TRUE(std::equal(materialized.begin(), materialized.end(),
                         expected.begin(), expected.end()));
}

TEST(SharedTrace, ReadersRacingForUnpublishedBlocksSeeTheStream) {
  const std::size_t n = 4 * kBlock + 17;
  const std::vector<trace::Request> expected = reference_requests(30, n, 5);
  HookedStream source(30, n, Xoshiro256(5), sleep_a_little);
  trace::SharedTrace shared(source);
  std::vector<std::vector<trace::Request>> seen(4);
  const std::size_t pulls[] = {kBlock, 4096, 1000, 7};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < seen.size(); ++r)
    readers.emplace_back([&, r] { seen[r] = read_all(shared, pulls[r]); });
  for (std::thread& t : readers) t.join();
  for (std::size_t r = 0; r < seen.size(); ++r)
    EXPECT_EQ(seen[r], expected) << "reader pulling " << pulls[r];
  EXPECT_EQ(source.produced(), n) << "every block is produced once";
}

TEST(SharedTrace, AOneBlockTraceGivesTheStream) {
  const std::size_t n = 3 * kBlock + 100;
  const std::vector<trace::Request> expected = reference_requests(30, n, 6);
  for (const std::size_t pull : {kBlock, std::size_t{4096}, std::size_t{7}}) {
    const auto stream = trace::stream_facebook_like(
        trace::FacebookCluster::kDatabase, 30, n, Xoshiro256(6));
    trace::SharedTrace shared(*stream, trace::SharedTrace::Keep::kOneBlock);
    EXPECT_FALSE(shared.keeps_whole());
    EXPECT_EQ(read_all(shared, pull), expected) << "pulling " << pull;
  }
}

TEST(SharedTrace, ACancelStopsProductionWithinOneBlock) {
  const CancelToken cancel = CancelToken::make();
  HookedStream source(30, 6 * kBlock, Xoshiro256(7),
                      [&](std::size_t produced, std::size_t n) {
                        if (produced >= kBlock) cancel.request_cancel();
                        sleep_a_little(produced, n);
                      });
  trace::SharedTrace shared(source);
  std::atomic<int> stopped{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      // The block whose production fired the token is still published.
      EXPECT_EQ(shared.requests(0, kBlock, cancel).size(), kBlock);
      EXPECT_EQ(shared.requests(kBlock, kBlock, cancel).size(), kBlock);
      EXPECT_THROW((void)shared.requests(2 * kBlock, kBlock, cancel),
                   CancelledError);
      ++stopped;
    });
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(stopped.load(), 3);
  EXPECT_EQ(source.produced(), 2 * kBlock);
  EXPECT_NO_THROW(shared.rethrow_error());
}

TEST(SharedTrace, ASourceExceptionReachesEveryReaderAndTakeAsItself) {
  const auto breaks = [](std::size_t produced, std::size_t n) {
    if (produced >= kBlock) throw SpecError("source broke after one block");
    sleep_a_little(produced, n);
  };
  HookedStream source(30, 6 * kBlock, Xoshiro256(9), breaks);
  trace::SharedTrace shared(source);
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      EXPECT_EQ(shared.requests(0, kBlock).size(), kBlock);
      try {
        (void)shared.requests(kBlock, 1);
        ADD_FAILURE() << "a reader of a missing block gets the exception";
      } catch (const SpecError& e) {
        EXPECT_STREQ(e.what(), "source broke after one block");
      }
    });
  for (std::thread& t : readers) t.join();
  EXPECT_THROW(shared.rethrow_error(), SpecError);
  try {
    (void)std::move(shared).take();
    ADD_FAILURE() << "take() must rethrow the source's exception";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "source broke after one block");
  }
  HookedStream again(30, 3 * kBlock, Xoshiro256(9), breaks);
  EXPECT_THROW((void)trace::materialize(again), SpecError);
}

// ---- run_experiment after a cancel --------------------------------------

// Matchers built by the counted_* test algorithms.
std::atomic<std::size_t> g_built{0};

/// Registers "counted_<name>": `name`'s entry with a build that counts.
std::string register_counted(const std::string& name) {
  auto& algorithms = scenario::AlgorithmRegistry::instance();
  const std::string counted = "counted_" + name;
  if (algorithms.find(counted) == nullptr) {
    scenario::AlgorithmEntry entry = algorithms.at(name);
    entry.build = [build = entry.build](const core::Instance& instance,
                                        const ParamMap& params,
                                        const trace::Trace* full_trace,
                                        std::uint64_t seed) {
      g_built.fetch_add(1, std::memory_order_relaxed);
      return build(instance, params, full_trace, seed);
    };
    algorithms.add(counted, std::move(entry));
  }
  return counted;
}

/// Seven tasks over counted algorithms: two r_bma columns of two trials,
/// bma, greedy and so_bma (which needs the full trace).
class CancelledExperiment : public ::testing::Test {
 protected:
  static constexpr std::size_t kRequests = 3 * kBlock;

  CancelledExperiment() : topology_(net::make_fat_tree(24)) {
    config_.distances = &topology_.distances;
    config_.alpha = 12;
    config_.checkpoints = 4;
    config_.trials = 2;
    config_.base_seed = 11;
    specs_ = {{.algorithm = register_counted("r_bma"), .b = 2},
              {.algorithm = register_counted("r_bma"), .b = 6},
              {.algorithm = register_counted("bma"), .b = 2},
              {.algorithm = register_counted("greedy"), .b = 2},
              {.algorithm = register_counted("so_bma"), .b = 2}};
    g_built = 0;
  }

  std::unique_ptr<trace::TraceStream> source() const {
    return trace::stream_facebook_like(trace::FacebookCluster::kDatabase,
                                       topology_.num_racks(), kRequests,
                                       Xoshiro256(5));
  }

  net::Topology topology_;
  sim::ExperimentConfig config_;
  std::vector<sim::ExperimentSpec> specs_;
};

TEST_F(CancelledExperiment, APreCancelledRunBuildsNoMatcherAndNoTrace) {
  const trace::Trace trace = trace::materialize(*source());
  config_.cancel = CancelToken::make();
  config_.cancel.request_cancel();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config_.threads = threads;
    EXPECT_THROW((void)sim::run_experiment(config_, trace, specs_),
                 CancelledError);
    EXPECT_EQ(g_built.load(), 0u) << "over a Trace";

    const std::unique_ptr<trace::TraceStream> stream = source();
    trace::SharedTrace shared(*stream);
    EXPECT_THROW((void)sim::run_experiment(config_, shared, specs_),
                 CancelledError);
    EXPECT_EQ(g_built.load(), 0u) << "over a SharedTrace";
    EXPECT_EQ(stream->produced(), 0u);
  }
}

TEST_F(CancelledExperiment, ACancelInTheFirstTaskLeavesTheOthersUnbuilt) {
  // One thread runs the tasks one after another: the first task's first
  // checkpoint fires the token, so it stops at its next chunk and no later
  // task builds a matcher.
  config_.threads = 1;
  config_.on_checkpoint = [this](const sim::ExperimentSpec&, std::uint64_t,
                                 const sim::Checkpoint&) {
    config_.cancel.request_cancel();
  };
  const trace::Trace trace = trace::materialize(*source());
  config_.cancel = CancelToken::make();
  EXPECT_THROW((void)sim::run_experiment(config_, trace, specs_),
               CancelledError);
  EXPECT_EQ(g_built.load(), 1u) << "over a Trace";

  g_built = 0;
  config_.cancel = CancelToken::make();
  const std::unique_ptr<trace::TraceStream> stream = source();
  trace::SharedTrace shared(*stream);
  EXPECT_THROW((void)sim::run_experiment(config_, shared, specs_),
               CancelledError);
  EXPECT_EQ(g_built.load(), 1u) << "over a SharedTrace";
}

// ---- run_scenario over a shared trace ------------------------------------

/// Test workloads: facebook_db behind a per-pull hook.
void register_hooked(const std::string& name,
                     std::function<void(std::size_t, std::size_t)>
                         before_pull) {
  auto& workloads = scenario::WorkloadRegistry::instance();
  if (workloads.find(name) != nullptr) return;
  workloads.add(name, {"facebook_db with a per-pull test hook",
                       {},
                       [before_pull](std::size_t racks, std::size_t requests,
                                     const ParamMap&, const Xoshiro256& rng) {
                         return std::make_unique<HookedStream>(
                             racks, requests, rng, before_pull);
                       }});
}

/// run_scenario's inputs rebuilt by hand — topology, then workload, from
/// one RNG — and replayed by run_experiment over the materialized trace.
std::vector<sim::RunResult> replay_materialized(const ScenarioSpec& raw) {
  const ScenarioSpec spec = raw.resolved();
  Xoshiro256 rng(spec.seed);
  const net::Topology topology =
      scenario::TopologyRegistry::instance().make(spec.topology, spec.racks,
                                                  rng);
  const trace::Trace trace =
      trace::materialize(*scenario::WorkloadRegistry::instance().make_stream(
          spec.workload, std::min(spec.racks, topology.num_racks()),
          spec.requests, rng));
  sim::ExperimentConfig config;
  config.distances = &topology.distances;
  config.alpha = spec.alpha;
  config.a = spec.a;
  config.checkpoints = spec.checkpoints;
  config.trials = spec.trials;
  config.base_seed = spec.seed;
  config.threads = 1;
  std::vector<sim::ExperimentSpec> columns;
  for (const Spec& algorithm : spec.algorithms)
    for (const std::size_t b : spec.cache_sizes) {
      columns.push_back({algorithm.name, b, algorithm.params,
                         algorithm.to_string() + "(b=" + std::to_string(b) +
                             ")"});
      if (scenario::AlgorithmRegistry::instance()
              .at(algorithm.name)
              .b_independent)
        break;
    }
  return sim::run_experiment(config, trace, columns);
}

void expect_same_columns(const std::vector<sim::RunResult>& expected,
                         const std::vector<sim::RunResult>& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].algorithm);
    EXPECT_EQ(expected[i].algorithm, got[i].algorithm);
    ASSERT_EQ(expected[i].checkpoints.size(), got[i].checkpoints.size());
    for (std::size_t c = 0; c < expected[i].checkpoints.size(); ++c) {
      const sim::Checkpoint& e = expected[i].checkpoints[c];
      const sim::Checkpoint& g = got[i].checkpoints[c];
      EXPECT_EQ(e.requests, g.requests) << "cp " << c;
      EXPECT_EQ(e.routing_cost, g.routing_cost) << "cp " << c;
      EXPECT_EQ(e.reconfig_cost, g.reconfig_cost) << "cp " << c;
      EXPECT_EQ(e.total_cost, g.total_cost) << "cp " << c;
      EXPECT_EQ(e.direct_serves, g.direct_serves) << "cp " << c;
      EXPECT_EQ(e.edge_adds, g.edge_adds) << "cp " << c;
      EXPECT_EQ(e.edge_removals, g.edge_removals) << "cp " << c;
      EXPECT_EQ(e.matching_size, g.matching_size) << "cp " << c;
    }
  }
}

/// Runs `cell` over the slow workload at 1, 2, 4 and 8 threads; every
/// column must equal the materialized replay's.
void expect_pipeline_matches_materialized(const std::string& cell) {
  register_hooked("slow_facebook_db", sleep_a_little);
  ScenarioSpec spec = ScenarioSpec::parse(
      "workload=slow_facebook_db;racks=24;alpha=12;checkpoints=7;seed=13;" +
      cell);
  const std::vector<sim::RunResult> expected = replay_materialized(spec);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    EXPECT_EQ(result.workload.size(), spec.requests);
    expect_same_columns(expected, result.runs);
  }
}

TEST(SharedTracePipeline, OnlineColumnsEqualTheMaterializedReplay) {
  expect_pipeline_matches_materialized(
      "algorithms=r_bma,bma,greedy,oblivious;b=2,6;trials=2;"
      "requests=150000");
}

TEST(SharedTracePipeline, OfflineTasksBesideOnlineOnesEqualIt) {
  // so_bma and offline_dynamic wait for the last block before they build;
  // offline_dynamic's tasks are dispatched right behind bma's, ahead of
  // every r_bma trial.
  expect_pipeline_matches_materialized(
      "algorithms=so_bma,offline_dynamic:window=1000,r_bma,bma;b=2,6;"
      "trials=2;requests=110000");
}

// The cancel workload fires g_cancel once its first block is out and
// counts the requests it produces.
CancelToken g_cancel;
std::atomic<std::size_t> g_produced{0};

TEST(SharedTracePipeline, ACancelDuringGenerationStopsWithinABlock) {
  register_hooked("cancel_after_first_block",
                  [](std::size_t produced, std::size_t n) {
                    if (produced >= kBlock)
                      g_cancel.request_cancel();
                    g_produced = produced + n;
                  });
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("threads=") + threads);
    g_cancel = CancelToken::make();
    g_produced = 0;
    scenario::RunHooks hooks;
    hooks.cancel = g_cancel;
    // Two tasks, 20 blocks: a cell that shares its trace.
    EXPECT_THROW((void)scenario::run_scenario(
                     ScenarioSpec::parse(
                         std::string("workload=cancel_after_first_block;"
                                     "algorithms=bma;b=2,4;racks=16;"
                                     "requests=655360;threads=") +
                         threads),
                     hooks),
                 CancelledError);
    EXPECT_LE(g_produced.load(), 2 * kBlock);
  }
}

TEST(SharedTracePipeline, AFailingWorkloadSurfacesAsItsOwnSpecError) {
  register_hooked("throw_after_first_block",
                  [](std::size_t produced, std::size_t) {
                    if (produced >= kBlock)
                      throw SpecError("workload broke after its first block");
                  });
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("threads=") + threads);
    try {
      (void)scenario::run_scenario(ScenarioSpec::parse(
          std::string("workload=throw_after_first_block;"
                      "algorithms=r_bma,bma,so_bma;b=2;trials=2;racks=16;"
                      "requests=200000;threads=") +
          threads));
      ADD_FAILURE() << "the workload's SpecError must surface";
    } catch (const SpecError& e) {
      EXPECT_STREQ(e.what(), "workload broke after its first block");
    }
  }
}

}  // namespace
