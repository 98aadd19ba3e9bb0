// ThreadSanitizer-focused stress of the observability hot paths: striped
// counter/histogram recording from many threads, gauge churn, concurrent
// registration against rendering, one span tree built from ThreadPool
// workers, and fault-observer firings racing a METRICS-style scrape.
// Runs in the plain tier too; the tsan preset (label tier1_tsan) is
// where it earns its keep.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace rdcn;

TEST(ObsConcurrency, CountersAndHistogramsUnderContention) {
  obs::Registry r;
  obs::Counter& c = r.counter("stress_total", "contended counter");
  obs::Gauge& g = r.gauge("stress_depth", "contended gauge");
  obs::Histogram& h = r.histogram("stress_seconds", "contended histogram",
                                  {1000, 100000, 10000000});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(i % 2 == 0 ? 1 : -1);
        h.observe_ns(static_cast<std::uint64_t>(t) * 1000 + i);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kIters);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kIters);
}

TEST(ObsConcurrency, RegistrationRacesRendering) {
  obs::Registry r;
  std::atomic<bool> stop{false};
  // Scraper thread renders while writers register and record — the
  // daemon's METRICS verb against live executors.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = r.render_prometheus();
      const std::string json = r.render_json();
      EXPECT_EQ(json.front(), '{');
      EXPECT_EQ(json.back(), '}');
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        obs::Counter& c =
            r.counter("race_total", "raced",
                      {{"writer", std::to_string(t)},
                       {"mod", std::to_string(i % 7)}});
        c.inc();
        r.gauge("race_depth", "raced gauge").set(i);
        r.latency_histogram("race_seconds", "raced histogram")
            .observe_ns(static_cast<std::uint64_t>(i) * 100);
      }
    });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  std::uint64_t total = 0;
  for (int t = 0; t < 4; ++t)
    for (int m = 0; m < 7; ++m)
      total += r.counter_value("race_total",
                               {{"writer", std::to_string(t)},
                                {"mod", std::to_string(m)}});
  EXPECT_EQ(total, 4u * 500u);
}

TEST(ObsConcurrency, SpansFromPoolWorkers) {
  obs::set_tracing(true);
  obs::reset_traces();
  struct Ctx {
    std::atomic<std::uint64_t> done{0};
  } ctx;
  sim::ThreadPool pool(4);
  {
    obs::ObsSpan submitter("obs_tsan.submitter");
    pool.run(
        256, 4,
        [](void* p, std::size_t) {
          obs::ObsSpan outer("obs_tsan.pool_outer");
          obs::ObsSpan inner("obs_tsan.pool_inner");
          static_cast<Ctx*>(p)->done.fetch_add(1, std::memory_order_relaxed);
        },
        &ctx);
  }
  obs::set_tracing(false);
  EXPECT_EQ(ctx.done.load(), 256u);
  // Whichever thread ran an index, its spans open under the submitter's
  // span: one row per path, with the full count, and nothing at the root.
  std::uint64_t nested = 0;
  std::uint64_t inner = 0;
  std::uint64_t elsewhere = 0;
  for (const obs::PhaseTotal& p : obs::collect_phases()) {
    if (p.path == "obs_tsan.submitter/obs_tsan.pool_outer")
      nested += p.count;
    else if (p.path ==
             "obs_tsan.submitter/obs_tsan.pool_outer/obs_tsan.pool_inner")
      inner += p.count;
    else if (p.name == "obs_tsan.pool_outer")
      elsewhere += p.count;
  }
  EXPECT_EQ(nested, 256u);
  EXPECT_EQ(inner, 256u);
  EXPECT_EQ(elsewhere, 0u);
}

TEST(ObsConcurrency, CollectRacesRunningSpans) {
  obs::set_tracing(true);
  obs::reset_traces();
  std::atomic<int> running{4};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 4; ++t)
    spanners.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        obs::ObsSpan a("obs_tsan.live");
        obs::ObsSpan b("obs_tsan.live_child");
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  // Collect continuously while spans are being entered/exited — the
  // daemon's metrics dump (written by its housekeeping loop) against live
  // executors.
  while (running.load(std::memory_order_relaxed) > 0) {
    (void)obs::collect_phases();
    (void)obs::trace_json();
  }
  for (std::thread& t : spanners) t.join();
  obs::set_tracing(false);
  const std::vector<obs::PhaseTotal> phases = obs::collect_phases();
  std::uint64_t live_count = 0;
  for (const obs::PhaseTotal& p : phases)
    if (p.name == "obs_tsan.live") live_count += p.count;
  EXPECT_EQ(live_count, 4u * 5000u);
}

TEST(ObsConcurrency, FaultFiringsRaceScrapes) {
  obs::install_fault_observer();
  fault::disarm_all();
  fault::arm("obs_tsan.fault");
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed))
      (void)obs::Registry::global().render_prometheus();
  });
  std::vector<std::thread> firers;
  for (int t = 0; t < 4; ++t)
    firers.emplace_back([] {
      for (int i = 0; i < 2000; ++i) fault::fire("obs_tsan.fault");
    });
  for (std::thread& t : firers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  fault::disarm_all();
  EXPECT_EQ(obs::Registry::global().counter_value(
                "rdcn_fault_fires_total", {{"point", "obs_tsan.fault"}}),
            4u * 2000u);
}

}  // namespace
