// Failure-injection tests: the library must fail loudly and immediately on
// misuse (RDCN_ASSERT aborts; spec-string entry points throw SpecError so
// drivers can report and exit), never silently corrupt an experiment.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "scenario/registry.hpp"
#include "net/topology.hpp"
#include "paging/belady.hpp"
#include "paging/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace rdcn;

TEST(FailureHandling, UnknownMatcherNameThrows) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  core::Instance inst;
  inst.distances = &d;
  inst.b = 1;
  EXPECT_THROW(scenario::make_algorithm("definitely_not_an_algorithm", inst),
               SpecError);
}

TEST(FailureHandling, SoBmaWithoutTraceThrows) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  core::Instance inst;
  inst.distances = &d;
  inst.b = 1;
  EXPECT_THROW(scenario::make_algorithm("so_bma", inst, nullptr), SpecError);
}

TEST(FailureHandling, UnknownAlgorithmParameterThrows) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  core::Instance inst;
  inst.distances = &d;
  inst.b = 1;
  EXPECT_THROW(scenario::make_algorithm("r_bma:enginee=lru", inst), SpecError);
}

TEST(FailureHandling, UnknownPagingEngineThrowsListingKnownEngines) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  core::Instance inst;
  inst.distances = &d;
  inst.b = 1;
  try {
    (void)scenario::make_algorithm("r_bma:engine=belady2", inst);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("belady2"), std::string::npos) << what;
    for (const std::string& engine : paging::engine_names())
      EXPECT_NE(what.find(engine), std::string::npos) << engine << ": " << what;
  }
}

// Trace import takes user files, so its failures are SpecError (report
// and keep serving) rather than asserts — the serving daemon must survive
// a malformed upload.  Detailed message/location coverage lives in
// trace_io_test; here we pin the failure *mode*.
TEST(FailureHandling, MalformedTraceLineThrows) {
  std::stringstream in("0;1\n");
  EXPECT_THROW(trace::read_csv(in), SpecError);
}

TEST(FailureHandling, SelfLoopRequestThrows) {
  std::stringstream in("3,3\n");
  EXPECT_THROW(trace::read_csv(in), SpecError);
}

TEST(FailureHandling, RackIdBeyondDeclaredUniverseThrows) {
  std::stringstream in("# racks=3 name=x\n0,7\n");
  EXPECT_THROW(trace::read_csv(in), SpecError);
}

TEST(FailureHandling, MissingTraceFileThrows) {
  EXPECT_THROW(trace::read_csv_file("/nonexistent/rdcn/trace.csv"),
               SpecError);
}

TEST(FailureHandling, BeladyReplayDivergenceAborts) {
  paging::Belady b(2, {1, 2, 3});
  std::vector<paging::Key> ev;
  b.request(1, ev);
  EXPECT_DEATH(b.request(9, ev), "diverged");
}

TEST(FailureHandling, BeladyOverrunAborts) {
  paging::Belady b(2, {1});
  std::vector<paging::Key> ev;
  b.request(1, ev);
  EXPECT_DEATH(b.request(1, ev), "past its announced sequence");
}

TEST(FailureHandling, NonIncreasingCheckpointsAbort) {
  const auto d = net::DistanceMatrix::uniform(4, 1);
  core::Instance inst;
  inst.distances = &d;
  inst.b = 1;
  auto m = scenario::make_algorithm("oblivious", inst);
  trace::Trace t(4, "x");
  t.push_back(trace::Request::make(0, 1));
  t.push_back(trace::Request::make(0, 1));
  EXPECT_DEATH(sim::run_simulation(*m, t, {2, 1}), "non-decreasing");
}

TEST(FailureHandling, DisconnectedTopologyAborts) {
  // Distance matrix construction requires all racks reachable.
  net::Graph g(4);
  g.add_edge(0, 1);  // 2 and 3 isolated
  g.finalize();
  EXPECT_DEATH(net::DistanceMatrix(g, {0, 1, 2, 3}), "connect all racks");
}

}  // namespace
