// Robustness of the serving stack under deliberate failure: a
// malformed-input matrix driven through a real socket, out-of-range
// component parameters refused without killing the daemon, the bounded read
// line, deadline enforcement, executor crash containment + quarantine,
// client retry through REJECT backpressure and mid-run disconnects,
// fd/executor hygiene after torn sends, the daemon's thread roles and
// periodic metrics dump, and disk-cache persistence across a daemon
// restart with a torn entry on disk.
//
// Fault points (common/fault.hpp) make every failure deterministic; the
// fixture guarantees nothing stays armed between tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
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

/// Small enough to finish in well under a second, big enough to stream
/// checkpoints; the reordered twin canonicalizes identically.
constexpr const char* kTinySpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
    "trials=1;checkpoints=2;seed=11";
constexpr const char* kTinySpecReordered =
    "b=2;workload=zipf:skew=1.1;requests=4000;algorithms=bma;racks=8;"
    "checkpoints=2;trials=1;seed=11";
constexpr const char* kOtherSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
    "trials=1;checkpoints=2;seed=12";
/// Long enough that a run still has most of its work left when a
/// deadline or disconnect cuts it short (first checkpoint at 100k of
/// 1.6M requests).
constexpr const char* kLongSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=1600000;"
    "trials=1;checkpoints=16;seed=3";
/// Multi-second on current hardware — the deadline below must fire long
/// before natural completion even on a much faster machine.
constexpr const char* kSlowSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=32000000;"
    "trials=1;checkpoints=16;seed=3";

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/rdcn_robust_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

std::string direct_csv(const std::string& spec_text) {
  const scenario::ScenarioResult result =
      scenario::run_scenario(scenario::ScenarioSpec::parse(spec_text));
  std::ostringstream csv;
  sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
  return csv.str();
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

ServeOptions small_options(const std::string& tag) {
  ServeOptions options;
  options.socket_path = unique_socket_path(tag);
  options.executors = 1;
  options.threads = 1;
  return options;
}

/// Polls `pred` every 10 ms until it holds or ~5 s elapse.
template <typename Pred>
bool poll_until(Pred pred) {
  const auto deadline = monotonic_now() + std::chrono::seconds(5);
  while (monotonic_now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

/// Failure diagnostics: what each open fd points at.
std::string dump_fds() {
  std::string out;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const fs::path target = fs::read_symlink(entry.path(), ec);
    out += entry.path().filename().string() + " -> " +
           (ec ? "?" : target.string()) + "\n";
  }
  return out;
}

/// Nothing armed before or after any test (the registry is global).
struct RobustnessTest : ::testing::Test {
  void SetUp() override {
    fault::disarm_all();
    ::unsetenv("RDCN_FAULTS");
  }
  void TearDown() override { fault::disarm_all(); }
};

// ------------------------------------------------- malformed-input matrix

TEST_F(RobustnessTest, MalformedInputMatrixKeepsDaemonServing) {
  DaemonFixture f(small_options("matrix"));
  // Every row must draw an ERROR reply — never silence, never a dead
  // daemon.  Rows cover: unknown verbs, missing/garbage arguments,
  // overflowing and signed CANCEL ids, junk after the RUN spec, bad
  // deadline_ms values, truncated and duplicate spec attributes.
  const std::vector<std::string> rows = {
      "FROB",
      "PING extra",
      "RUN",
      "CANCEL",
      "CANCEL x7",
      "CANCEL -1",
      "CANCEL 99999999999999999999999999",  // > 2^64
      "RUN workload=zipf;requests=100 junk_after_spec",
      "RUN workload=zipf;requests=100 deadline_ms=0",
      "RUN workload=zipf;requests=100 deadline_ms=abc",
      "RUN workload=zipf;requests=100 deadline_ms=",
      "RUN topology=",                          // truncated attribute
      "RUN workload=zipf;workload=zipf",        // duplicate key
      "RUN workload=zipf;requests=100;requests=200",
      "RUN requests=",  // empty value
      "RUN workload",   // not key=value
      "RUN no_such_field=1",
      "RUN workload=no_such_workload;requests=100",
      // Shapes no run survives: caught at admission, not by an abort.
      "RUN racks=1",
      "RUN requests=0",
      "RUN requests=3;checkpoints=8",
      "RUN alpha=18446744073709551615",  // would wrap R-BMA and the ledger
      "RUN algorithms=so_bma;b=1;a=2",   // a degree-2 plan, degree-1 matching
  };
  for (const std::string& row : rows) {
    f.client.send_line(row);
    const ServerLine reply = parse_server_line(f.client.read_line());
    EXPECT_EQ(reply.kind, ServerLine::Kind::kError) << "input: " << row;
    f.client.ping();  // still serving, same connection
  }
  // And the daemon still does real work afterwards.
  const Client::Submission sub = f.client.submit(kTinySpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  EXPECT_EQ(f.client.collect(sub.id).status, "ok");
}

TEST_F(RobustnessTest, ShortCsvImportEndsInErrorAndDaemonKeepsServing) {
  // Admission checks the spec's `requests`, not an imported file's length,
  // so a 3-line csv is accepted.  Its run must then end status=error — a
  // refusal, not a crash: no crash count, and the daemon keeps answering.
  const std::string path =
      "/tmp/rdcn_robust_short_" + std::to_string(::getpid()) + ".csv";
  {
    std::ofstream out(path);
    out << "0,1\n1,2\n2,3\n";
  }
  DaemonFixture f(small_options("short_csv"));
  const Client::Submission sub = f.client.submit(
      "workload=csv:path=" + path + ";algorithms=bma;b=2;racks=8");
  ASSERT_TRUE(sub.accepted) << sub.error;
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "error");
  EXPECT_NE(out.error.find("checkpoints"), std::string::npos) << out.error;
  f.client.ping();
  EXPECT_EQ(f.daemon.stats_report().crashed, 0u);
  fs::remove(path);
}

TEST_F(RobustnessTest, OutOfRangeParametersAreRefusedAndDaemonSurvives) {
  // Each of these once killed the daemon for every tenant: a flow-pool
  // hub_fraction above 1 read past the rack list (SIGSEGV), and b=0 failed
  // an assertion (SIGABRT).
  DaemonFixture f(small_options("out_of_range"));

  // Admission cannot see a workload parameter's range, so the run is
  // accepted and then ends in ERROR followed by DONE status=error.
  f.client.send_line(
      "RUN workload=flow_pool:hub_fraction=2;algorithms=bma;b=2;racks=32;"
      "requests=1000;checkpoints=2");
  ServerLine line = parse_server_line(f.client.read_line());
  ASSERT_EQ(line.kind, ServerLine::Kind::kAccepted);
  const std::uint64_t id = line.id;
  line = parse_server_line(f.client.read_line());
  EXPECT_EQ(line.kind, ServerLine::Kind::kError);
  EXPECT_NE(line.text.find("hub_fraction"), std::string::npos) << line.text;
  line = parse_server_line(f.client.read_line());
  EXPECT_EQ(line.kind, ServerLine::Kind::kDone);
  EXPECT_EQ(line.id, id);
  EXPECT_EQ(line.status, "error");

  // b=0 is a shape no run survives: refused at admission, never ACCEPTED.
  f.client.send_line("RUN workload=zipf;algorithms=bma;b=0;racks=8");
  line = parse_server_line(f.client.read_line());
  EXPECT_EQ(line.kind, ServerLine::Kind::kError);
  EXPECT_NE(line.text.find("b must be positive"), std::string::npos)
      << line.text;

  f.client.ping();
  EXPECT_EQ(f.client.stats_report().crashed, 0u);
}

TEST_F(RobustnessTest, OversizedLineIsRefusedAndConnectionClosed) {
  DaemonFixture f(small_options("line_cap"));
  // > 1 MiB with no newline: the daemon must refuse instead of buffering
  // without bound.  Our own send may die with EPIPE once the daemon
  // hangs up mid-stream — that's part of the contract.
  try {
    f.client.send_line(std::string((1u << 20) + (200u << 10), 'x'));
  } catch (const TransportError&) {
  }
  std::string reply;
  try {
    reply = f.client.read_line();
  } catch (const TransportError&) {
  }
  EXPECT_NE(reply.find("line_too_long"), std::string::npos) << reply;
  // The offending connection is gone...
  EXPECT_THROW(
      {
        f.client.send_line("PING");
        f.client.read_line();
        f.client.read_line();
      },
      TransportError);
  // ...but the daemon is healthy for the next client.
  f.client.reconnect();
  f.client.ping();
}

// ------------------------------------------------------------- deadlines

TEST_F(RobustnessTest, DeadlineExceededEndsLongRunEarly) {
  DaemonFixture f(small_options("deadline"));
  const Client::Submission sub = f.client.submit(kSlowSpec, /*deadline_ms=*/250);
  ASSERT_TRUE(sub.accepted) << sub.error;
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "deadline_exceeded");
  EXPECT_TRUE(out.csv.empty());
  // Cut short, not run to completion: a finished kSlowSpec run streams
  // all 16 checkpoints.
  EXPECT_LT(out.checkpoints, 16u);
  EXPECT_EQ(f.daemon.stats_report().deadline_exceeded, 1u);

  // The executor is free again and undamaged.
  const Client::Submission next = f.client.submit(kTinySpec);
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_EQ(f.client.collect(next.id).status, "ok");
}

TEST_F(RobustnessTest, RunFinishingBeforeDeadlineIsUntouched) {
  DaemonFixture f(small_options("deadline_ok"));
  const Client::Submission sub =
      f.client.submit(kTinySpec, /*deadline_ms=*/60'000);
  ASSERT_TRUE(sub.accepted) << sub.error;
  EXPECT_EQ(f.client.collect(sub.id).status, "ok");
  EXPECT_EQ(f.daemon.stats_report().deadline_exceeded, 0u);
}

// ------------------------------------------- executor crashes, quarantine

TEST_F(RobustnessTest, ExecutorCrashIsContainedAndStreakResetsOnSuccess) {
  ServeOptions options = small_options("crash");
  options.quarantine_threshold = 2;
  DaemonFixture f(std::move(options));

  fault::arm("serve.executor.crash", {.times = 1});
  const Client::Submission first = f.client.submit(kTinySpec);
  ASSERT_TRUE(first.accepted) << first.error;
  const Client::RunOutput crashed = f.client.collect(first.id);
  EXPECT_EQ(crashed.status, "error");
  EXPECT_NE(crashed.error.find("internal="), std::string::npos)
      << crashed.error;
  EXPECT_EQ(f.daemon.stats_report().crashed, 1u);

  // Fault exhausted: the same spec succeeds, clearing its crash streak.
  const Client::Submission second = f.client.submit(kTinySpec);
  ASSERT_TRUE(second.accepted) << second.error;
  EXPECT_EQ(f.client.collect(second.id).status, "ok");

  // One more crash is streak 1 again — not quarantine (threshold 2).
  fault::arm("serve.executor.crash", {.times = 1});
  const Client::Submission third = f.client.submit(kOtherSpec);
  ASSERT_TRUE(third.accepted) << third.error;
  EXPECT_EQ(f.client.collect(third.id).status, "error");
  const Client::Submission fourth = f.client.submit(kOtherSpec);
  EXPECT_TRUE(fourth.accepted) << fourth.error;
  EXPECT_EQ(f.client.collect(fourth.id).status, "ok");

  const StatsReport stats = f.daemon.stats_report();
  EXPECT_EQ(stats.crashed, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(RobustnessTest, SpecIsQuarantinedAfterConsecutiveCrashes) {
  ServeOptions options = small_options("quarantine");
  options.quarantine_threshold = 2;
  DaemonFixture f(std::move(options));

  fault::arm("serve.executor.crash", {.times = 2});
  for (int i = 0; i < 2; ++i) {
    const Client::Submission sub = f.client.submit(kTinySpec);
    ASSERT_TRUE(sub.accepted) << sub.error;
    EXPECT_EQ(f.client.collect(sub.id).status, "error");
  }

  // Third submission fast-fails at admission — no executor is risked.
  const Client::Submission refused = f.client.submit(kTinySpec);
  EXPECT_FALSE(refused.accepted);
  EXPECT_NE(refused.error.find("quarantined"), std::string::npos)
      << refused.error;

  // The reordered twin shares the canonical key: quarantined too.
  EXPECT_NE(f.client.submit(kTinySpecReordered).error.find("quarantined"),
            std::string::npos);

  // Other specs are unaffected.
  const Client::Submission other = f.client.submit(kOtherSpec);
  ASSERT_TRUE(other.accepted) << other.error;
  EXPECT_EQ(f.client.collect(other.id).status, "ok");

  const StatsReport stats = f.daemon.stats_report();
  EXPECT_EQ(stats.crashed, 2u);
  EXPECT_GE(stats.quarantined, 2u);
}

// ----------------------------------------------------- client retry loop

TEST_F(RobustnessTest, ClientRetriesThroughRejectBackpressure) {
  DaemonFixture f(small_options("retry_reject"));
  // Two injected REJECTs, then normal admission: run_scenario should
  // land on attempt 3 without help.
  fault::arm("serve.admit.reject", {.times = 2});
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.jitter_seed = 42;
  const Client::RunOutput out = f.client.run_scenario(kTinySpec, policy);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(f.daemon.stats_report().rejected, 2u);
}

TEST_F(RobustnessTest, ClientReconnectsThroughMidRunDisconnect) {
  DaemonFixture f(small_options("retry_drop"));
  // The ACCEPTED reply passes; the next send on this connection (the
  // first progress line) is dropped and the connection torn down —
  // exactly what a daemon-side disconnect looks like mid-run.
  fault::arm("serve.send.drop", {.after = 1, .times = 1});
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  policy.jitter_seed = 43;
  const Client::RunOutput out = f.client.run_scenario(kTinySpec, policy);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_TRUE(f.client.connected());
}

TEST_F(RobustnessTest, RetryGivesUpWithDiagnosticAfterMaxAttempts) {
  DaemonFixture f(small_options("retry_exhaust"));
  fault::arm("serve.admit.reject");  // every admission rejected
  Client::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  policy.jitter_seed = 44;
  try {
    f.client.run_scenario(kTinySpec, policy);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("gave up after 3 attempts"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(f.daemon.stats_report().rejected, 3u);
}

// ---------------------------------------------- transport-failure kinds

TEST_F(RobustnessTest, SlowDaemonYieldsTimeoutKindAndIsNotRetried) {
  // executors=0 admits runs but never executes them: from the client's
  // side the daemon is alive but silent — the kTimeout shape.
  ServeOptions options = small_options("timeout_kind");
  options.executors = 0;
  DaemonFixture f(std::move(options));
  f.client.set_read_timeout_seconds(1);
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 1;
  policy.jitter_seed = 45;
  try {
    f.client.run_scenario(kTinySpec, policy);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    // Rethrown from attempt 1, not burned through the retry budget:
    // retrying against a wedged daemon only piles work up.
    EXPECT_EQ(e.kind(), TransportError::Kind::kTimeout);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST_F(RobustnessTest, ClosedConnectionYieldsEofKind) {
  DaemonFixture f(small_options("eof_kind"));
  f.client.send_line("SHUTDOWN");
  EXPECT_EQ(parse_server_line(f.client.read_line()).kind,
            ServerLine::Kind::kBye);
  // After BYE the daemon closes this connection: orderly EOF, clearly
  // distinguishable from a timeout.
  try {
    f.client.read_line();
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kEof);
    EXPECT_NE(std::string(e.what()).find("EOF"), std::string::npos);
  }
}

// ------------------------------------- torn sends, executor/fd hygiene

TEST_F(RobustnessTest, CachedRunReplyIsOneWrite) {
  DaemonFixture f(small_options("one_write"));
  const Client::Submission prime = f.client.submit(kTinySpec);
  ASSERT_TRUE(prime.accepted) << prime.error;
  ASSERT_EQ(f.client.collect(prime.id).status, "ok");

  // Armed never to fire, the stall point counts the writes: ACCEPTED,
  // RESULT with its payload and DONE leave in one.
  fault::arm("serve.send.stall", {.times = 0});
  const Client::Submission hit = f.client.submit(kTinySpecReordered);
  ASSERT_TRUE(hit.accepted) << hit.error;
  const Client::RunOutput out = f.client.collect(hit.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.csv, direct_csv(kTinySpec));
  EXPECT_EQ(fault::eval_count("serve.send.stall"), 1u);
  EXPECT_EQ(fault::fire_count("serve.send.stall"), 0u);
}

TEST_F(RobustnessTest, ShortWriteMidResultBreaksConnectionNotDaemon) {
  DaemonFixture f(small_options("short_write"));
  // Prime the caches so the replay path (ACCEPTED, RESULT and DONE in
  // one write) is deterministic to count sends on.
  const Client::Submission prime = f.client.submit(kTinySpec);
  ASSERT_TRUE(prime.accepted) << prime.error;
  ASSERT_EQ(f.client.collect(prime.id).status, "ok");

  // The reply's one write is cut in half: ACCEPTED passes, the RESULT
  // header+payload blob does not.
  fault::arm("serve.send.short_write", {.after = 0, .times = 1});
  const Client::Submission sub = f.client.submit(kTinySpecReordered);
  ASSERT_TRUE(sub.accepted) << sub.error;
  EXPECT_THROW(
      {
        // Reading to DONE can't succeed: the stream dies mid-payload.
        for (int i = 0; i < 10'000; ++i) f.client.read_line();
      },
      TransportError);
  f.client.disconnect();

  // The daemon shrugs it off: fresh connection, full payload, idle stats.
  f.client.reconnect();
  const Client::Submission again = f.client.submit(kTinySpec);
  ASSERT_TRUE(again.accepted) << again.error;
  const Client::RunOutput replay = f.client.collect(again.id);
  EXPECT_EQ(replay.status, "ok");
  EXPECT_TRUE(replay.cached);
  // The executor's slot bookkeeping trails the DONE line slightly.
  EXPECT_TRUE(poll_until([&] {
    const StatsReport s = f.daemon.stats_report();
    return s.active == 0 && s.queued == 0;
  }));
}

TEST_F(RobustnessTest, DisconnectDuringRunFreesExecutorAndFds) {
  DaemonFixture f(small_options("fd_hygiene"));
  Client stats_client;
  stats_client.connect(f.daemon.options().socket_path);
  // A PONG proves the daemon-side fd of each connection exists before the
  // baseline is measured (accept runs asynchronously).
  f.client.ping();
  stats_client.ping();
  const std::size_t fd_baseline = open_fd_count();

  // The very first send to the doomed client (its ACCEPTED line) is
  // torn, breaking the connection while the long run is just starting.
  Client doomed;
  doomed.connect(f.daemon.options().socket_path);
  fault::arm("serve.send.short_write", {.times = 1});
  doomed.send_line(std::string("RUN ") + kLongSpec);
  EXPECT_THROW(doomed.read_line(), TransportError);
  doomed.disconnect();

  // Nobody is left to receive the run: the checkpoint hook notices the
  // broken connection and cancels, freeing the executor — STATS (over a
  // separate live connection) returns to idle well before the run could
  // have finished.
  EXPECT_TRUE(poll_until([&] {
    const StatsReport s = stats_client.stats_report();
    return s.active == 0 && s.queued == 0 && s.cancelled == 1;
  })) << stats_client.stats();

  // And the daemon's side of the dead connection is actually released:
  // open-fd count returns to the baseline (doomed's two fds are gone).
  EXPECT_TRUE(poll_until([&] { return open_fd_count() <= fd_baseline; }))
      << "open fds: " << open_fd_count() << " baseline: " << fd_baseline
      << "\n" << dump_fds();
}

/// The ids of this process's threads.
std::set<std::string> thread_ids() {
  std::set<std::string> tids;
  for (const auto& entry : fs::directory_iterator("/proc/self/task"))
    tids.insert(entry.path().filename().string());
  return tids;
}

/// How many of this process's threads are not in `before`.  Counting only
/// new ids keeps a thread that an earlier test left still exiting out of
/// the count.
std::size_t new_threads(const std::set<std::string>& before) {
  std::size_t n = 0;
  for (const std::string& tid : thread_ids()) n += before.count(tid) == 0;
  return n;
}

TEST_F(RobustnessTest, ThreadsAreOneLoopTheExecutorsAndOneReaderPerClient) {
  ServeOptions options = small_options("threads");
  options.executors = 2;
  const std::set<std::string> before = thread_ids();
  Daemon daemon(std::move(options));
  daemon.start();
  // The housekeeping loop and two executors; nothing submitted, so the
  // run thread pool does not grow.
  EXPECT_EQ(new_threads(before), 3u);

  Client client;
  client.connect(daemon.options().socket_path);
  client.ping();  // answered by the connection's reader thread
  EXPECT_EQ(new_threads(before), 4u);
  client.disconnect();
  EXPECT_TRUE(poll_until([&] { return new_threads(before) == 3; }))
      << new_threads(before) << " threads started since before start()";
  daemon.stop();
  EXPECT_EQ(new_threads(before), 0u);
}

// ---------------------------------------------------------- metrics dump

/// Whole-snapshot shape of a metrics dump file.
bool is_dump_snapshot(const std::string& text) {
  return text.rfind("{\"serve\":", 0) == 0 &&
         text.find(",\"process\":") != std::string::npos &&
         text.find(",\"trace\":") != std::string::npos &&
         text.size() > 2 && text.compare(text.size() - 2, 2, "}\n") == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(RobustnessTest, MetricsDumpRewritesEveryPeriodAndOnceAtStop) {
  const std::string path = unique_socket_path("dump") + ".json";
  fs::remove(path);
  {
    ServeOptions options = small_options("dump");
    options.metrics_dump_path = path;
    options.metrics_dump_ms = 50;
    DaemonFixture f(std::move(options));
    // Each period replaces the file (temp file + rename) with a whole
    // snapshot: remove it and it comes back.
    for (int rewrite = 0; rewrite < 2; ++rewrite) {
      ASSERT_TRUE(poll_until([&] { return fs::exists(path); }))
          << "rewrite " << rewrite;
      EXPECT_TRUE(is_dump_snapshot(read_file(path))) << read_file(path);
      fs::remove(path);
    }
  }
  fs::remove(path);  // the first daemon's final snapshot

  // A period longer than the test: the only snapshot is stop()'s.
  ServeOptions options = small_options("dump_final");
  options.metrics_dump_path = path;
  options.metrics_dump_ms = 600'000;
  {
    DaemonFixture f(std::move(options));
    f.client.ping();
    EXPECT_FALSE(fs::exists(path));
  }
  EXPECT_TRUE(is_dump_snapshot(read_file(path))) << read_file(path);
  fs::remove(path);
}

// -------------------------------------- disk persistence across restart

TEST_F(RobustnessTest, DiskCacheServesCompletedRunsAcrossRestart) {
  const std::string dir =
      "/tmp/rdcn_robust_disk_" + std::to_string(::getpid());
  fs::remove_all(dir);
  const std::string expected = direct_csv(kTinySpec);

  {
    ServeOptions options = small_options("persist_a");
    options.disk_cache_dir = dir;
    DaemonFixture a(std::move(options));
    const Client::Submission ok = a.client.submit(kTinySpec);
    ASSERT_TRUE(ok.accepted) << ok.error;
    ASSERT_EQ(a.client.collect(ok.id).status, "ok");

    // The second run completes for its client, but its disk entry is
    // torn mid-write — the restart below must not trust it.
    fault::arm("serve.disk_cache.torn_write", {.times = 1});
    const Client::Submission torn = a.client.submit(kOtherSpec);
    ASSERT_TRUE(torn.accepted) << torn.error;
    ASSERT_EQ(a.client.collect(torn.id).status, "ok");
    fault::disarm_all();
  }  // daemon A gone; only the disk directory survives

  ServeOptions options = small_options("persist_b");
  options.disk_cache_dir = dir;
  DaemonFixture b(std::move(options));
  // The torn entry was detected (and skipped) while loading.
  EXPECT_EQ(b.daemon.stats_report().disk_corrupt, 1u);

  // The completed run is served from disk: cached, bit-identical, no
  // recompute (the reordered twin proves canonical keying too).
  const Client::Submission hit = b.client.submit(kTinySpecReordered);
  ASSERT_TRUE(hit.accepted) << hit.error;
  const Client::RunOutput replay = b.client.collect(hit.id);
  EXPECT_EQ(replay.status, "ok");
  EXPECT_TRUE(replay.cached);
  EXPECT_EQ(replay.csv, expected);

  // The torn spec is simply recomputed — degraded, never wrong.
  const Client::Submission redo = b.client.submit(kOtherSpec);
  ASSERT_TRUE(redo.accepted) << redo.error;
  const Client::RunOutput recomputed = b.client.collect(redo.id);
  EXPECT_EQ(recomputed.status, "ok");
  EXPECT_FALSE(recomputed.cached);

  const StatsReport stats = b.daemon.stats_report();
  EXPECT_GE(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_corrupt, 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------- stats on the wire

TEST_F(RobustnessTest, StatsReportRoundTripsOverTheWire) {
  DaemonFixture f(small_options("stats_wire"));
  const Client::Submission run = f.client.submit(kTinySpec);
  ASSERT_TRUE(run.accepted) << run.error;
  ASSERT_EQ(f.client.collect(run.id).status, "ok");
  const Client::Submission hit = f.client.submit(kTinySpecReordered);
  ASSERT_TRUE(hit.accepted) << hit.error;
  ASSERT_EQ(f.client.collect(hit.id).status, "ok");

  // Parsed wire report matches the daemon's own snapshot (the executor's
  // slot bookkeeping trails the DONE line slightly, hence the poll).
  EXPECT_TRUE(poll_until([&] { return f.client.stats_report().active == 0; }));
  const StatsReport wire = f.client.stats_report();
  EXPECT_EQ(wire.active, 0u);
  EXPECT_EQ(wire.queued, 0u);
  EXPECT_EQ(wire.completed, 2u);
  EXPECT_EQ(wire.cache_hits, 1u);
  EXPECT_EQ(wire.cache_entries, 1u);
  EXPECT_EQ(wire.cancelled, 0u);
  EXPECT_EQ(wire.crashed, 0u);
  EXPECT_EQ(wire.deadline_exceeded, 0u);
  EXPECT_EQ(wire.rejected, 0u);
  EXPECT_EQ(wire.quarantined, 0u);
  EXPECT_EQ(wire.disk_hits, 0u);  // disk cache disabled here
}

}  // namespace
