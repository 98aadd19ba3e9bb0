// The observability subsystem (src/obs): counter/gauge/histogram
// semantics, registry interning and type checks, Prometheus text
// exposition, JSON snapshots, the fault-firing observer, and the RAII
// phase spans — including the "phase totals track wall clock" contract
// that rdcn_sim --profile reports rely on.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using namespace rdcn;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SumsAcrossThreadStripes) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 8000u);
}

TEST(Gauge, SetAddAndNegativeValues) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperEdges) {
  obs::Histogram h({100, 1000, 10000});
  h.observe_ns(100);    // lands in le=100 (inclusive)
  h.observe_ns(101);    // le=1000
  h.observe_ns(10000);  // le=10000
  h.observe_ns(10001);  // +Inf
  EXPECT_EQ(h.cumulative(0), 1u);  // <= 100
  EXPECT_EQ(h.cumulative(1), 2u);  // <= 1000
  EXPECT_EQ(h.cumulative(2), 3u);  // <= 10000
  EXPECT_EQ(h.cumulative(3), 4u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 100u + 101u + 10000u + 10001u);
}

TEST(Histogram, ObserveSecondsConvertsAndClampsNegatives) {
  obs::Histogram h({1000, 1000000});
  h.observe_seconds(0.0000005);  // 500 ns -> first bucket
  h.observe_seconds(-1.0);       // clamped to 0 -> first bucket
  EXPECT_EQ(h.cumulative(0), 2u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, DefaultLatencyBucketsSpanMicrosecondsToMinutes) {
  const std::vector<std::uint64_t> bounds =
      obs::default_latency_buckets_ns();
  ASSERT_EQ(bounds.size(), 14u);
  EXPECT_EQ(bounds.front(), 1000u);  // 1 us
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_EQ(bounds[i], bounds[i - 1] * 4);
  EXPECT_GT(bounds.back(), 60'000'000'000ull);  // past a minute
}

TEST(Registry, InterningReturnsTheSameHandle) {
  obs::Registry r;
  obs::Counter& a = r.counter("reqs_total", "requests");
  obs::Counter& b = r.counter("reqs_total", "requests");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(r.counter_value("reqs_total"), 1u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  obs::Registry r;
  obs::Counter& a =
      r.counter("io_total", "io", {{"op", "read"}, {"dev", "sda"}});
  obs::Counter& b =
      r.counter("io_total", "io", {{"dev", "sda"}, {"op", "read"}});
  obs::Counter& c = r.counter("io_total", "io", {{"op", "write"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(3);
  EXPECT_EQ(r.counter_value("io_total", {{"dev", "sda"}, {"op", "read"}}),
            3u);
  EXPECT_EQ(r.counter_value("io_total", {{"op", "write"}}), 0u);
}

TEST(Registry, TypeConflictThrows) {
  obs::Registry r;
  r.counter("thing", "a counter");
  EXPECT_THROW(r.gauge("thing", "now a gauge"), SpecError);
  EXPECT_THROW(r.histogram("thing", "now a histogram", {1000}), SpecError);
}

TEST(Registry, AbsentMetricsReadAsZero) {
  obs::Registry r;
  EXPECT_EQ(r.counter_value("never_registered"), 0u);
  EXPECT_EQ(r.gauge_value("never_registered"), 0);
}

TEST(Registry, PrometheusExpositionFormat) {
  obs::Registry r;
  r.counter("runs_total", "Runs by status", {{"status", "ok"}}).add(3);
  r.counter("runs_total", "Runs by status", {{"status", "error"}});
  r.gauge("depth", "Queue depth").set(-2);
  obs::Histogram& h = r.histogram("lat_seconds", "Latency", {1000, 1000000});
  h.observe_ns(500);
  h.observe_ns(2000);

  const std::string text = r.render_prometheus();
  // Families are sorted by name; children stay in registration order.
  EXPECT_EQ(text,
            "# HELP depth Queue depth\n"
            "# TYPE depth gauge\n"
            "depth -2\n"
            "# HELP lat_seconds Latency\n"
            "# TYPE lat_seconds histogram\n"
            "lat_seconds_bucket{le=\"1e-06\"} 1\n"
            "lat_seconds_bucket{le=\"0.001\"} 2\n"
            "lat_seconds_bucket{le=\"+Inf\"} 2\n"
            "lat_seconds_sum 2.5e-06\n"
            "lat_seconds_count 2\n"
            "# HELP runs_total Runs by status\n"
            "# TYPE runs_total counter\n"
            "runs_total{status=\"ok\"} 3\n"
            "runs_total{status=\"error\"} 0\n");
}

TEST(Registry, PrometheusEscapesLabelValues) {
  obs::Registry r;
  r.counter("weird_total", "odd labels", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = r.render_prometheus();
  EXPECT_NE(text.find("weird_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
}

TEST(Registry, JsonSnapshotShape) {
  obs::Registry r;
  r.counter("c_total", "c").add(5);
  r.gauge("g", "g").set(-1);
  r.histogram("h_seconds", "h", {1000}).observe_ns(2000);
  EXPECT_EQ(r.render_json(),
            "{\"c_total\":5,"
            "\"g\":-1,"
            "\"h_seconds\":{\"count\":1,\"sum_seconds\":2e-06,"
            "\"buckets\":{\"1e-06\":0,\"+Inf\":1}}}");
}

TEST(FaultObserver, CountsFiringsByPoint) {
  obs::install_fault_observer();
  fault::disarm_all();
  fault::arm("obs_test.point", {.times = 2});
  const std::uint64_t before = obs::Registry::global().counter_value(
      "rdcn_fault_fires_total", {{"point", "obs_test.point"}});
  EXPECT_TRUE(fault::fire("obs_test.point"));
  EXPECT_TRUE(fault::fire("obs_test.point"));
  EXPECT_FALSE(fault::fire("obs_test.point"));  // times=2 exhausted
  fault::disarm_all();
  EXPECT_EQ(obs::Registry::global().counter_value(
                "rdcn_fault_fires_total", {{"point", "obs_test.point"}}),
            before + 2);
}

TEST(Span, DisabledSpansRecordNothing) {
  obs::set_tracing(false);
  obs::reset_traces();
  { obs::ObsSpan span("obs_test.disabled"); }
  EXPECT_EQ(obs::phase_total_ns(obs::collect_phases(), "obs_test.disabled"),
            0u);
}

TEST(Span, NestedSpansFormAMergedTree) {
  obs::set_tracing(true);
  obs::reset_traces();
  for (int i = 0; i < 3; ++i) {
    obs::ObsSpan outer("obs_test.outer");
    obs::ObsSpan inner("obs_test.inner");
  }
  obs::set_tracing(false);

  const std::vector<obs::PhaseTotal> phases = obs::collect_phases();
  const obs::PhaseTotal* outer = nullptr;
  const obs::PhaseTotal* inner = nullptr;
  for (const obs::PhaseTotal& p : phases) {
    if (p.name == "obs_test.outer") outer = &p;
    if (p.name == "obs_test.inner") inner = &p;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  EXPECT_EQ(inner->path, outer->path + "/obs_test.inner");
  // The child ran strictly inside the parent.
  EXPECT_LE(inner->total_ns, outer->total_ns);
}

TEST(Span, PhaseTotalsTrackWallClock) {
  // The --profile contract: a root span's total tracks the wall clock of
  // the region it brackets (within 5%), and child phases sum to no more
  // than the root.
  obs::set_tracing(true);
  obs::reset_traces();
  const std::uint64_t wall_begin = monotonic_now_ns();
  {
    obs::ObsSpan root("obs_test.root");
    {
      obs::ObsSpan child("obs_test.work");
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    {
      obs::ObsSpan child("obs_test.more_work");
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  }
  const std::uint64_t wall_ns = monotonic_now_ns() - wall_begin;
  obs::set_tracing(false);

  const std::vector<obs::PhaseTotal> phases = obs::collect_phases();
  const std::uint64_t root_ns = obs::phase_total_ns(phases, "obs_test.root");
  const std::uint64_t child_ns =
      obs::phase_total_ns(phases, "obs_test.work") +
      obs::phase_total_ns(phases, "obs_test.more_work");
  ASSERT_GT(root_ns, 0u);
  EXPECT_LE(root_ns, wall_ns);
  EXPECT_GE(root_ns, wall_ns - wall_ns / 20);  // within 5% of wall
  EXPECT_LE(child_ns, root_ns);
  EXPECT_GE(child_ns, root_ns - root_ns / 20);
}

TEST(Span, CollectPhasesSurvivesWideTrees) {
  // Regression: flatten() once recursed with a reference into the output
  // vector as the path prefix; a reallocation mid-recursion left it
  // dangling.  A tree with enough rows to force several reallocations
  // must still produce every path intact.
  static const char* const kKids[] = {"obs_test.k0", "obs_test.k1",
                                      "obs_test.k2", "obs_test.k3",
                                      "obs_test.k4", "obs_test.k5",
                                      "obs_test.k6", "obs_test.k7"};
  static const char* const kGrand[] = {"obs_test.g0", "obs_test.g1"};
  obs::set_tracing(true);
  obs::reset_traces();
  {
    obs::ObsSpan root("obs_test.wide_root");
    for (const char* kid : kKids) {
      obs::ObsSpan k(kid);
      for (const char* grand : kGrand) obs::ObsSpan g(grand);
    }
  }
  obs::set_tracing(false);
  const std::vector<obs::PhaseTotal> phases = obs::collect_phases();
  for (const char* kid : kKids)
    for (const char* grand : kGrand) {
      const std::string want =
          std::string("obs_test.wide_root/") + kid + "/" + grand;
      bool found = false;
      for (const obs::PhaseTotal& p : phases)
        if (p.path == want) {
          found = true;
          EXPECT_EQ(p.depth, 2);
          EXPECT_EQ(p.count, 1u);
        }
      EXPECT_TRUE(found) << "missing path " << want;
    }
}

TEST(Span, SpanParentOpensSpansUnderTheGivenContext) {
  obs::set_tracing(true);
  obs::reset_traces();
  obs::SpanContext submitted = nullptr;
  {
    obs::ObsSpan submitter("obs_test.submitter");
    submitted = obs::current_span();
  }
  {
    obs::ObsSpan mine("obs_test.mine");
    {
      const obs::SpanParent parent(submitted);
      obs::ObsSpan adopted("obs_test.adopted");
    }
    // Another thread, the way a pool worker runs a job.
    std::thread([submitted] {
      const obs::SpanParent parent(submitted);
      obs::ObsSpan worker("obs_test.worker");
    }).join();
    obs::ObsSpan after("obs_test.after");  // back under this thread's span
  }
  { obs::ObsSpan top("obs_test.top"); }
  obs::set_tracing(false);
  std::set<std::string> paths;
  for (const obs::PhaseTotal& p : obs::collect_phases())
    if (p.count > 0 && p.path.rfind("obs_test.", 0) == 0) paths.insert(p.path);
  EXPECT_EQ(paths, (std::set<std::string>{
                       "obs_test.mine", "obs_test.mine/obs_test.after",
                       "obs_test.submitter",
                       "obs_test.submitter/obs_test.adopted",
                       "obs_test.submitter/obs_test.worker", "obs_test.top"}));
}

TEST(Span, SiblingsComeInNameOrder) {
  obs::set_tracing(true);
  obs::reset_traces();
  {
    obs::ObsSpan root("obs_test.order");
    for (const char* name : {"obs_test.c", "obs_test.a", "obs_test.b"})
      obs::ObsSpan child(name);
  }
  obs::set_tracing(false);
  std::vector<std::string> children;
  for (const obs::PhaseTotal& p : obs::collect_phases())
    if (p.path.rfind("obs_test.order/", 0) == 0) children.push_back(p.name);
  EXPECT_EQ(children, (std::vector<std::string>{"obs_test.a", "obs_test.b",
                                                "obs_test.c"}));
}

TEST(Span, ProfileReportListsPhases) {
  obs::set_tracing(true);
  obs::reset_traces();
  {
    obs::ObsSpan outer("obs_test.report_outer");
    obs::ObsSpan inner("obs_test.report_inner");
  }
  obs::set_tracing(false);
  std::ostringstream out;
  obs::write_profile_report(out);
  EXPECT_NE(out.str().find("obs_test.report_outer"), std::string::npos);
  EXPECT_NE(out.str().find("obs_test.report_inner"), std::string::npos);
}

TEST(Span, TraceJsonIsNested) {
  obs::set_tracing(true);
  obs::reset_traces();
  {
    obs::ObsSpan outer("obs_test.json_outer");
    obs::ObsSpan inner("obs_test.json_inner");
  }
  obs::set_tracing(false);
  const std::string json = obs::trace_json();
  const std::size_t outer_pos = json.find("\"obs_test.json_outer\"");
  const std::size_t inner_pos = json.find("\"obs_test.json_inner\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);  // child serialized inside the parent
}

}  // namespace
