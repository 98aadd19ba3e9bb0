// Overload containment: the drain-rate retry hint as a unit, the RESET
// and REJECT lines at the parse layer, and the daemon end to end — a
// full queue refusing the run past --queue with REJECT reason=queue_full,
// the protocol input that no longer exists refused by name, the stuck-run
// watchdog turning a wedged executor into DONE status=stalled with the
// daemon surviving, and RESET clearing quarantine streaks live.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/lifecycle.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;

/// Finishes in tens of milliseconds; seed varies to make distinct specs.
std::string tiny_spec(int seed) {
  return "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
         "trials=1;checkpoints=2;seed=" +
         std::to_string(seed);
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/rdcn_overload_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

ServeOptions small_options(const std::string& tag) {
  ServeOptions options;
  options.socket_path = unique_socket_path(tag);
  options.executors = 1;
  options.threads = 1;
  return options;
}

struct DaemonFixture {
  explicit DaemonFixture(ServeOptions options) : daemon(std::move(options)) {
    daemon.start();
    client.connect(daemon.options().socket_path);
  }
  ~DaemonFixture() {
    client.disconnect();
    daemon.stop();
  }
  Daemon daemon;
  Client client;
};

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Unit: DrainEstimator.

TEST(DrainEstimatorTest, FallsBackBeforeAnyObservation) {
  DrainEstimator est;
  EXPECT_EQ(est.retry_ms(10, 2, 250), 250u);
}

TEST(DrainEstimatorTest, HintTracksQueueDepthAndExecutors) {
  DrainEstimator est;
  est.observe_run_ns(100'000'000);  // 100 ms runs
  EXPECT_EQ(est.ewma_ns(), 100'000'000u);
  // Q=3 queued, 2 executors: a slot frees in ~100ms * 4 / 2 = 200ms.
  EXPECT_EQ(est.retry_ms(3, 2, 999), 200u);
  // Empty queue: one run-time away, scaled by executors.
  EXPECT_EQ(est.retry_ms(0, 2, 999), 50u);
}

TEST(DrainEstimatorTest, ClampsPathologicalHints) {
  DrainEstimator est;
  est.observe_run_ns(1);  // ~instant runs -> still at least 1 ms
  EXPECT_GE(est.retry_ms(0, 1, 999), 1u);
  DrainEstimator slow;
  slow.observe_run_ns(3'600'000'000'000ull);  // hour-long runs -> 60 s cap
  EXPECT_EQ(slow.retry_ms(100, 1, 999), 60'000u);
}

TEST(DrainEstimatorTest, EwmaSmoothsOutliers) {
  DrainEstimator est;
  est.observe_run_ns(100);
  est.observe_run_ns(1000);
  EXPECT_EQ(est.ewma_ns(), (1000 + 4 * 100) / 5);
}

// ---------------------------------------------------------------------------
// Unit: the RESET and REJECT lines.

TEST(OverloadProtocolTest, ParsesReset) {
  const Command one = parse_command("RESET spec=workload=uniform;requests=10");
  EXPECT_EQ(one.kind, Command::Kind::kReset);
  EXPECT_FALSE(one.all);
  EXPECT_EQ(one.spec, "workload=uniform;requests=10");
  const Command all = parse_command("RESET all=1");
  EXPECT_EQ(all.kind, Command::Kind::kReset);
  EXPECT_TRUE(all.all);
  EXPECT_EQ(parse_command("RESET").kind, Command::Kind::kInvalid);
}

TEST(OverloadProtocolTest, RoundTripsRejectResetOk) {
  const ServerLine reject = parse_server_line(msg_reject(350));
  EXPECT_EQ(reject.kind, ServerLine::Kind::kReject);
  EXPECT_EQ(reject.retry_ms, 350u);
  EXPECT_EQ(reject.status, "queue_full");

  const ServerLine resetok = parse_server_line(msg_resetok(3));
  EXPECT_EQ(resetok.kind, ServerLine::Kind::kResetOk);
  EXPECT_EQ(resetok.lines, 3u);
}

// ---------------------------------------------------------------------------
// End-to-end: daemon + client.

TEST_F(OverloadTest, TheQueueFlagIsTheQueueBound) {
  // One wedged executor: every later run waits in the queue, which holds
  // exactly --queue runs; the next is refused as queue_full.
  ServeOptions options = small_options("bound");
  options.queue_limit = 16;
  DaemonFixture fixture(options);

  fault::arm("serve.executor.stall", {.times = 1});
  const Client::Submission wedged = fixture.client.submit(tiny_spec(80));
  ASSERT_TRUE(wedged.accepted) << wedged.error;
  const auto deadline = monotonic_now() + std::chrono::seconds(5);
  while (fixture.daemon.stats_report().active == 0 &&
         monotonic_now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(fixture.daemon.stats_report().active, 1u);

  for (int i = 0; i < 16; ++i) {
    const Client::Submission sub = fixture.client.submit(tiny_spec(81 + i));
    ASSERT_TRUE(sub.accepted)
        << "run " << i + 1 << " of 16: " << sub.error << " " << sub.reason;
  }
  const Client::Submission full = fixture.client.submit(tiny_spec(97));
  EXPECT_TRUE(full.rejected);
  EXPECT_EQ(full.reason, "queue_full");
  EXPECT_GT(full.retry_ms, 0u);

  const StatsReport stats = fixture.client.stats_report();
  EXPECT_EQ(stats.queued, 16u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(OverloadTest, RemovedProtocolInputIsRefusedByName) {
  DaemonFixture fixture(small_options("removed"));
  const std::string run = "RUN " + tiny_spec(90);
  const struct {
    std::string line;
    const char* token;
  } rows[] = {
      {"HELLO client=a", "'HELLO'"},
      {run + " client=a", "'client'"},
      {run + " priority=1", "'priority'"},
  };
  for (const auto& row : rows) {
    fixture.client.send_line(row.line);
    const ServerLine reply = parse_server_line(fixture.client.read_line());
    EXPECT_EQ(reply.kind, ServerLine::Kind::kError) << row.line;
    EXPECT_NE(reply.text.find(row.token), std::string::npos)
        << row.line << ": " << reply.text;
  }
  // Nothing was admitted, and the connection still serves.
  fixture.client.ping();
  const StatsReport stats = fixture.client.stats_report();
  EXPECT_EQ(stats.queued + stats.active + stats.completed, 0u);
}

TEST_F(OverloadTest, WatchdogStallsWedgedRunAndDaemonSurvives) {
  ServeOptions options = small_options("stall");
  options.progress_timeout_ms = 150;
  DaemonFixture fixture(options);

  fault::arm("serve.executor.stall", {.times = 1});
  const Client::Submission wedged = fixture.client.submit(tiny_spec(50));
  ASSERT_TRUE(wedged.accepted);
  const Client::RunOutput out = fixture.client.collect(wedged.id);
  EXPECT_EQ(out.status, "stalled");

  const StatsReport stats = fixture.client.stats_report();
  EXPECT_EQ(stats.stalled, 1u);

  // The executor slot is back: the same daemon serves the next run.
  const Client::Submission next = fixture.client.submit(tiny_spec(50));
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(fixture.client.collect(next.id).status, "ok");
}

TEST_F(OverloadTest, ResetClearsQuarantineLive) {
  ServeOptions options = small_options("reset");
  options.progress_timeout_ms = 150;
  options.quarantine_threshold = 1;  // first stall quarantines the spec
  DaemonFixture fixture(options);

  fault::arm("serve.executor.stall", {.times = 1});
  const std::string spec = tiny_spec(60);
  const Client::Submission wedged = fixture.client.submit(spec);
  ASSERT_TRUE(wedged.accepted);
  EXPECT_EQ(fixture.client.collect(wedged.id).status, "stalled");

  const Client::Submission refused = fixture.client.submit(spec);
  EXPECT_FALSE(refused.accepted);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;

  const std::string canonical =
      scenario::ScenarioSpec::parse(spec).canonical_string();
  EXPECT_EQ(fixture.client.reset_quarantine(canonical), 1u);
  EXPECT_EQ(fixture.client.reset_all(), 0u);  // nothing left to clear

  const Client::Submission retried = fixture.client.submit(spec);
  ASSERT_TRUE(retried.accepted) << retried.error;
  EXPECT_EQ(fixture.client.collect(retried.id).status, "ok");
}

}  // namespace
