// The durable run-lifecycle layer end to end: ATTACH resubscription
// (second connections, checkpoint replay with from=, finished runs),
// journal-backed crash recovery across a daemon restart (re-enqueued
// runs, stable ids, persisted quarantine streaks), the client's
// reconnect-and-ATTACH resume, and graceful drain via SHUTDOWN drain=1
// or SIGTERM, including a drain whose budget runs out.
//
// The in-process counterpart of the chaos soak (cmake/chaos_soak.sh),
// which drives the same paths through the real binaries with SIGKILL.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "sim/report.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;
namespace fs = std::filesystem;

/// Same tiny/long pair the robustness suite uses: the tiny spec finishes
/// in well under a second with two checkpoints; the long one leaves time
/// to attach or drain while it still has most of its work ahead.
constexpr const char* kTinySpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
    "trials=1;checkpoints=2;seed=11";
constexpr const char* kOtherSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
    "trials=1;checkpoints=2;seed=12";
constexpr const char* kLongSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=1600000;"
    "trials=1;checkpoints=16;seed=3";
/// Seconds of work: outlasts a short drain budget on any machine.
constexpr const char* kSlowSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=32000000;"
    "trials=1;checkpoints=16;seed=3";

std::string unique_path(const std::string& tag, const std::string& suffix) {
  return "/tmp/rdcn_attach_test_" + std::to_string(::getpid()) + "_" + tag +
         suffix;
}

std::string direct_csv(const std::string& spec_text) {
  const scenario::ScenarioResult result =
      scenario::run_scenario(scenario::ScenarioSpec::parse(spec_text));
  std::ostringstream csv;
  sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
  return csv.str();
}

ServeOptions small_options(const std::string& tag) {
  ServeOptions options;
  options.socket_path = unique_path(tag, ".sock");
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

/// Nothing armed before or after any test; scratch dirs cleaned up.
struct AttachTest : ::testing::Test {
  void SetUp() override {
    fault::disarm_all();
    ::unsetenv("RDCN_FAULTS");
  }
  void TearDown() override {
    fault::disarm_all();
    for (const std::string& dir : scratch) fs::remove_all(dir);
  }
  std::string scratch_dir(const std::string& tag, const std::string& kind) {
    scratch.push_back(unique_path(tag, "." + kind));
    fs::remove_all(scratch.back());
    return scratch.back();
  }
  std::vector<std::string> scratch;
};

// ------------------------------------------------------- ATTACH protocol

TEST_F(AttachTest, SecondConnectionAttachesToInFlightRun) {
  DaemonFixture f(small_options("second_conn"));
  const Client::Submission sub = f.client.submit(kLongSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;

  Client other;
  other.connect(f.daemon.options().socket_path);
  const Client::AttachResult at = other.attach(sub.id);
  ASSERT_TRUE(at.attached) << at.error;
  EXPECT_TRUE(at.state == "queued" || at.state == "running") << at.state;

  // Both subscribers stream the same run to DONE with the same payload.
  const Client::RunOutput mine = f.client.collect(sub.id);
  const Client::RunOutput theirs = other.collect(sub.id);
  EXPECT_EQ(mine.status, "ok") << mine.error;
  EXPECT_EQ(theirs.status, "ok") << theirs.error;
  EXPECT_EQ(mine.csv, theirs.csv);
  EXPECT_GE(f.daemon.stats_report().attached, 1u);
}

TEST_F(AttachTest, AttachToUnknownIdIsRefused) {
  DaemonFixture f(small_options("unknown_id"));
  const Client::AttachResult at = f.client.attach(424242);
  EXPECT_FALSE(at.attached);
  EXPECT_NE(at.error.find("unknown_run"), std::string::npos) << at.error;
}

TEST_F(AttachTest, AttachToFinishedRunReplaysCachedResult) {
  DaemonFixture f(small_options("finished"));
  const Client::Submission sub = f.client.submit(kTinySpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  ASSERT_EQ(f.client.collect(sub.id).status, "ok");

  const Client::AttachResult at = f.client.attach(sub.id);
  ASSERT_TRUE(at.attached) << at.error;
  EXPECT_EQ(at.state, "done");
  EXPECT_EQ(at.last_seq, 2u);  // checkpoints=2 in the spec
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.checkpoints, 2u);  // full replay from seq 1
  EXPECT_EQ(out.csv, direct_csv(kTinySpec));
}

TEST_F(AttachTest, AttachFromSkipsAlreadySeenCheckpoints) {
  DaemonFixture f(small_options("from_seq"));
  const Client::Submission sub = f.client.submit(kTinySpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  ASSERT_EQ(f.client.collect(sub.id).status, "ok");

  // A resuming client that already saw seq 1 asks from=2: only the
  // second checkpoint replays.
  const Client::AttachResult at = f.client.attach(sub.id, /*from=*/2);
  ASSERT_TRUE(at.attached) << at.error;
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.checkpoints, 1u);
}

// ------------------------------------------- client resume with a journal

TEST_F(AttachTest, ClientResumesMidRunDisconnectWithoutResubmitting) {
  ServeOptions options = small_options("resume");
  options.journal_dir = scratch_dir("resume", "journal");
  DaemonFixture f(std::move(options));

  // The ACCEPTED reply passes; the next send is dropped and the
  // connection torn down.  With a journal the daemon keeps the orphaned
  // run alive, so the client's reconnect lands on ATTACH — not a blind
  // resubmit — and the stream resumes.
  fault::arm("serve.send.drop", {.after = 1, .times = 1});
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.jitter_seed = 45;
  const Client::RunOutput out = f.client.run_scenario(kTinySpec, policy);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.csv, direct_csv(kTinySpec));
  // The run executed exactly once: the resume attached to the original
  // run instead of resubmitting a second one.
  const StatsReport stats = f.daemon.stats_report();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.attached, 1u);
}

// --------------------------------------------- recovery across a restart

TEST_F(AttachTest, JournalledRunSurvivesDaemonRestart) {
  const std::string journal_dir = scratch_dir("restart", "journal");
  const std::string cache_dir = scratch_dir("restart", "cache");
  const std::string expected = direct_csv(kTinySpec);

  // Daemon A admits the run but has no executors: the run is still
  // queued — journalled, never started — when A shuts down.
  std::uint64_t id = 0;
  {
    ServeOptions options = small_options("restart_a");
    options.executors = 0;
    options.journal_dir = journal_dir;
    options.disk_cache_dir = cache_dir;
    Daemon daemon(std::move(options));
    daemon.start();
    Client client;
    client.connect(daemon.options().socket_path);
    const Client::Submission sub = client.submit(kTinySpec);
    ASSERT_TRUE(sub.accepted) << sub.error;
    id = sub.id;
    client.disconnect();
    daemon.stop();
  }

  // Daemon B on the same dirs recovers the run, executes it, and still
  // answers ATTACH by the original id.
  ServeOptions options = small_options("restart_b");
  options.journal_dir = journal_dir;
  options.disk_cache_dir = cache_dir;
  DaemonFixture f(std::move(options));
  EXPECT_GE(f.daemon.stats_report().recovered, 1u);

  const Client::AttachResult at = f.client.attach(id);
  ASSERT_TRUE(at.attached) << at.error;
  const Client::RunOutput out = f.client.collect(id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.csv, expected);  // bit-identical to the direct run

  // The id counter moved past the recovered run: new ids never collide.
  const Client::Submission next = f.client.submit(kOtherSpec);
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_GT(next.id, id);
  EXPECT_EQ(f.client.collect(next.id).status, "ok");
}

TEST_F(AttachTest, QuarantineStreakPersistsAcrossRestart) {
  const std::string journal_dir = scratch_dir("streak", "journal");

  {
    ServeOptions options = small_options("streak_a");
    options.quarantine_threshold = 2;
    options.journal_dir = journal_dir;
    DaemonFixture f(std::move(options));
    fault::arm("serve.executor.crash", {.times = 2});
    for (int i = 0; i < 2; ++i) {
      const Client::Submission sub = f.client.submit(kTinySpec);
      ASSERT_TRUE(sub.accepted) << sub.error;
      EXPECT_EQ(f.client.collect(sub.id).status, "error");
    }
    fault::disarm_all();
  }

  // The restarted daemon remembers the streak: the spec is refused at
  // admission without risking another executor.
  ServeOptions options = small_options("streak_b");
  options.quarantine_threshold = 2;
  options.journal_dir = journal_dir;
  DaemonFixture f(std::move(options));
  const Client::Submission refused = f.client.submit(kTinySpec);
  EXPECT_FALSE(refused.accepted);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;
  // Other specs are unaffected.
  const Client::Submission other = f.client.submit(kOtherSpec);
  ASSERT_TRUE(other.accepted) << other.error;
  EXPECT_EQ(f.client.collect(other.id).status, "ok");
}

// ------------------------------------------------------------------ drain

TEST_F(AttachTest, ShutdownDrainFinishesInFlightAndRefusesNewRuns) {
  ServeOptions options = small_options("drain");
  options.drain_ms = 30'000;  // the long run must beat the budget
  Daemon daemon(std::move(options));
  daemon.start();

  Client runner;
  runner.connect(daemon.options().socket_path);
  const Client::Submission sub = runner.submit(kLongSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;

  // A second connection asks for a graceful drain and gets BYE at once.
  Client admin;
  admin.connect(daemon.options().socket_path);
  admin.shutdown_daemon(/*drain=*/true);

  // New submissions are refused while draining...
  Client late;
  late.connect(daemon.options().socket_path);
  const Client::Submission refused = late.submit(kTinySpec);
  EXPECT_FALSE(refused.accepted);
  EXPECT_NE(refused.error.find("draining"), std::string::npos)
      << refused.error;

  // ...but the in-flight run streams to DONE ok, after which the daemon
  // reports itself ready to exit.
  const Client::RunOutput out = runner.collect(sub.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  daemon.wait_for_shutdown_command();
  runner.disconnect();
  late.disconnect();
  daemon.stop();
}

TEST_F(AttachTest, DrainBudgetExpiryCancelsStragglers) {
  ServeOptions options = small_options("drain_budget");
  options.drain_ms = 100;  // far shorter than the run
  Daemon daemon(std::move(options));
  daemon.start();

  Client runner;
  runner.connect(daemon.options().socket_path);
  const Client::Submission sub = runner.submit(kSlowSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  Client admin;
  admin.connect(daemon.options().socket_path);
  admin.shutdown_daemon(/*drain=*/true);

  // The budget runs out first: the straggler is cancelled cooperatively,
  // and only then does the daemon report itself ready to exit.
  EXPECT_EQ(runner.collect(sub.id).status, "cancelled");
  daemon.wait_for_shutdown_command();
  EXPECT_NE(daemon.metrics_text().find("rdcn_serve_drain_seconds_count 1\n"),
            std::string::npos);
  runner.disconnect();
  daemon.stop();
}

TEST_F(AttachTest, SigtermDrainsAndStopRestoresSignalDispositions) {
  struct sigaction term_before {}, int_before {};
  ASSERT_EQ(::sigaction(SIGTERM, nullptr, &term_before), 0);
  ASSERT_EQ(::sigaction(SIGINT, nullptr, &int_before), 0);

  ServeOptions options = small_options("sigterm");
  options.handle_signals = true;
  Daemon daemon(std::move(options));
  daemon.start();
  Client client;
  client.connect(daemon.options().socket_path);
  const Client::Submission sub = client.submit(kTinySpec);
  ASSERT_TRUE(sub.accepted) << sub.error;

  // With the daemon's handler installed, SIGTERM starts a drain instead
  // of ending the process: the in-flight run finishes, later ones are
  // refused, and the owner is told to shut down.
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_EQ(client.collect(sub.id).status, "ok");
  daemon.wait_for_shutdown_command();
  EXPECT_NE(client.submit(kOtherSpec).error.find("draining"),
            std::string::npos);
  client.disconnect();
  daemon.stop();

  struct sigaction term_after {}, int_after {};
  ASSERT_EQ(::sigaction(SIGTERM, nullptr, &term_after), 0);
  ASSERT_EQ(::sigaction(SIGINT, nullptr, &int_after), 0);
  EXPECT_EQ(term_after.sa_handler, term_before.sa_handler);
  EXPECT_EQ(int_after.sa_handler, int_before.sa_handler);
}

}  // namespace
