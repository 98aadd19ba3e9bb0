// Multi-tenant overload control: the admission-control primitives
// (token buckets, quota tables, cost estimation, deficit round-robin,
// brownout hysteresis, drain-derived retry hints) as pure units, the
// protocol extensions (HELLO / RESET / client= / priority= / REJECT
// reasons) at the parse layer, and the daemon end-to-end — per-client
// quotas refusing with honest hints, two clients sharing one executor
// fairly, priority-aware shedding under brownout, the stuck-run
// watchdog turning a wedged executor into DONE status=stalled with the
// daemon surviving, and RESET clearing quarantine streaks live.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "scenario/scenario.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;

constexpr std::uint64_t kSecond = 1'000'000'000ull;

/// Finishes in tens of milliseconds; seed varies to make distinct specs.
std::string tiny_spec(int seed) {
  return "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
         "trials=1;checkpoints=2;seed=" +
         std::to_string(seed);
}

/// Long enough to still be running while a test pokes at the queue
/// behind it.
constexpr const char* kLongSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=1600000;"
    "trials=1;checkpoints=16;seed=3";

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
// Unit: client names.

TEST(ClientNameTest, ValidatesCharsetAndLength) {
  EXPECT_TRUE(is_valid_client_name("alice"));
  EXPECT_TRUE(is_valid_client_name("team-7.batch_2"));
  EXPECT_TRUE(is_valid_client_name(std::string(64, 'a')));
  EXPECT_FALSE(is_valid_client_name(""));
  EXPECT_FALSE(is_valid_client_name(std::string(65, 'a')));
  EXPECT_FALSE(is_valid_client_name("has space"));
  EXPECT_FALSE(is_valid_client_name("new\nline"));
  EXPECT_FALSE(is_valid_client_name("sla$h"));
}

// ---------------------------------------------------------------------------
// Unit: TokenBucket.

TEST(TokenBucketTest, UnlimitedWhenRateNonPositive) {
  TokenBucket bucket(0, 0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0));
}

TEST(TokenBucketTest, BurstThenHonestRetryHint) {
  // now=0 is the bucket's "never seen" sentinel; a real monotonic clock
  // starts elsewhere, so the tests do too.
  const std::uint64_t t0 = kSecond;
  TokenBucket bucket(1.0, 2.0);  // 1 token/s, depth 2, starts full
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_TRUE(bucket.try_take(t0));
  std::uint32_t retry = 0;
  EXPECT_FALSE(bucket.try_take(t0, &retry));
  // Empty at rate 1/s: a full token exists in ~1 s, not "soon" and not
  // "never".
  EXPECT_GE(retry, 900u);
  EXPECT_LE(retry, 1100u);
  // ...and the hint is honest: exactly that much later, a take succeeds.
  EXPECT_TRUE(bucket.try_take(t0 + std::uint64_t(retry) * 1'000'000 +
                              kSecond / 100));
}

TEST(TokenBucketTest, RefillsOverTimeAndCapsAtBurst) {
  const std::uint64_t t0 = kSecond;
  TokenBucket bucket(2.0, 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_FALSE(bucket.try_take(t0));
  EXPECT_NEAR(bucket.tokens_at(t0 + kSecond), 2.0, 1e-6);
  // Ten idle seconds refill to the cap, not to 20 banked tokens.
  EXPECT_NEAR(bucket.tokens_at(t0 + 10 * kSecond), 4.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Unit: QuotaTable.

TEST(QuotaTableTest, ParsesDefaultsOverridesAndComments) {
  const QuotaSpec seed{1.0, 0.0, 2};
  const QuotaTable table = QuotaTable::parse_text(
      "# fleet quotas\n"
      "default rps=2 burst=4 concurrent=8\n"
      "\n"
      "alice rps=100 concurrent=32\n"
      "bob   burst=1\n",
      seed);
  EXPECT_DOUBLE_EQ(table.lookup("nobody").rps, 2.0);
  EXPECT_DOUBLE_EQ(table.lookup("nobody").burst, 4.0);
  EXPECT_EQ(table.lookup("nobody").concurrent, 8u);
  EXPECT_DOUBLE_EQ(table.lookup("alice").rps, 100.0);
  EXPECT_EQ(table.lookup("alice").concurrent, 32u);
  // bob's row starts from the seed defaults and overrides burst only.
  EXPECT_DOUBLE_EQ(table.lookup("bob").burst, 1.0);
}

TEST(QuotaTableTest, RejectsMalformedLinesWithLineNumber) {
  try {
    QuotaTable::parse_text("default rps=2\nbad row=wat\n", QuotaSpec{});
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(QuotaTable::parse_text("bad/name rps=1\n", QuotaSpec{}),
               SpecError);
  EXPECT_THROW(QuotaTable::parse_text("alice rps=fast\n", QuotaSpec{}),
               SpecError);
  // Values a lax parser once read as something else: rps=2x as 2,
  // concurrent=-1 as 2^64-1, rps=nan as a bucket that admits everything.
  for (const char* attr : {"rps=2x", "concurrent=-1", "rps=nan", "rps=inf",
                           "burst=1e999", "concurrent=1.5", "rps", "rps=-1"}) {
    try {
      QuotaTable::parse_text("# quotas\nalice " + std::string(attr) + "\n",
                             QuotaSpec{});
      ADD_FAILURE() << attr << ": expected SpecError";
    } catch (const SpecError& e) {
      const std::string what = e.what();
      const std::string key = std::string(attr).substr(0, 3);
      EXPECT_NE(what.find("quota file line 2: "), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
}

TEST(QuotaTableTest, EffectiveBurstDerivesFromRate) {
  EXPECT_DOUBLE_EQ((QuotaSpec{8.0, 0.0, 0}).effective_burst(), 16.0);
  EXPECT_DOUBLE_EQ((QuotaSpec{0.1, 0.0, 0}).effective_burst(), 1.0);
  EXPECT_DOUBLE_EQ((QuotaSpec{8.0, 3.0, 0}).effective_burst(), 3.0);
}

// ---------------------------------------------------------------------------
// Unit: estimate_cost.

scenario::ScenarioSpec resolved(const std::string& text) {
  return scenario::ScenarioSpec::parse(text).resolved();
}

TEST(EstimateCostTest, ChargesRequestsTimesColumns) {
  // r_bma is the cost unit at every b: one unit per request per column.
  const std::uint64_t one_b = estimate_cost(
      resolved("algorithms=r_bma;b=2;racks=8;requests=4000;trials=1"));
  const std::uint64_t two_b = estimate_cost(
      resolved("algorithms=r_bma;b=2,4;racks=8;requests=4000;trials=1"));
  EXPECT_EQ(one_b, 4000u);
  EXPECT_EQ(two_b, 2 * one_b);
}

TEST(EstimateCostTest, TrialsMultiplyOnlyRandomizedAlgorithms) {
  const std::string bma = "algorithms=bma;b=2;racks=8;requests=4000;trials=";
  EXPECT_EQ(estimate_cost(resolved(bma + "5")),
            estimate_cost(resolved(bma + "1")));
  const std::string rand =
      "algorithms=r_bma;b=2;racks=8;requests=4000;trials=";
  EXPECT_EQ(estimate_cost(resolved(rand + "5")),
            5 * estimate_cost(resolved(rand + "1")));
}

TEST(EstimateCostTest, ChargesFollowMeasuredCostOrder) {
  // Single-thread ns/request on fat_tree, 100 racks, facebook_db (the
  // registry cost model's calibration table), relative to r_bma at the
  // same b.
  const auto cost = [](const std::string& algorithm, std::size_t b) {
    scenario::ScenarioSpec spec =
        resolved("racks=100;requests=100000;trials=1");
    spec.algorithms = {Spec{algorithm, {}}};
    spec.cache_sizes = {b};
    return estimate_cost(spec);
  };
  for (const std::size_t b : {4u, 16u, 64u}) {
    SCOPED_TRACE("b=" + std::to_string(b));
    // rotor > bma > r_bma > {so_bma, greedy} > oblivious at every b;
    // offline_dynamic's window matchings also outweigh r_bma.
    EXPECT_GT(cost("rotor", b), cost("bma", b));
    EXPECT_GT(cost("bma", b), cost("r_bma", b));
    EXPECT_GT(cost("offline_dynamic", b), cost("r_bma", b));
    for (const char* light : {"so_bma", "greedy"}) {
      EXPECT_GT(cost("r_bma", b), cost(light, b)) << light;
      EXPECT_GT(cost(light, b), cost("oblivious", b)) << light;
    }
  }
  // so_bma measures ≈0.37× r_bma, not the 4× a flat weight charged it.
  EXPECT_LT(cost("so_bma", 4), cost("r_bma", 4) / 2);
  // bma grows ≈2× from b=4 to b=64 and rotor ≈10×; r_bma and the
  // b-independent oblivious stay flat.
  EXPECT_GT(cost("bma", 64), 3 * cost("bma", 4) / 2);
  EXPECT_GT(cost("rotor", 64), 5 * cost("rotor", 4));
  EXPECT_GT(cost("rotor", 64), 50 * cost("r_bma", 64));
  EXPECT_EQ(cost("r_bma", 4), cost("r_bma", 64));
  EXPECT_EQ(cost("oblivious", 4), cost("oblivious", 64));
}

TEST(EstimateCostTest, BIndependentAlgorithmsChargeOneColumn) {
  const std::uint64_t one = estimate_cost(
      resolved("algorithms=oblivious;b=2;racks=8;requests=4000;trials=1"));
  const std::uint64_t many = estimate_cost(
      resolved("algorithms=oblivious;b=2,4,8;racks=8;requests=4000;trials=1"));
  EXPECT_EQ(one, many);
}

// ---------------------------------------------------------------------------
// Unit: DrrQueue.

TEST(DrrQueueTest, SingleLaneIsFifo) {
  DrrQueue<int> queue(10);
  for (int i = 0; i < 5; ++i) queue.push("a", 3, i);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.pop(&out));
  EXPECT_TRUE(queue.empty());
}

TEST(DrrQueueTest, SmallLaneInterleavesWithGreedyBacklog) {
  // greedy queues 4 big items before small's 2 cheap ones arrive; DRR
  // still serves small every round instead of after greedy's backlog.
  DrrQueue<std::string> queue(10);
  for (int i = 0; i < 4; ++i)
    queue.push("greedy", 10, "g" + std::to_string(i));
  queue.push("small", 1, "s0");
  queue.push("small", 1, "s1");
  std::vector<std::string> order;
  std::string out;
  while (queue.pop(&out)) order.push_back(out);
  ASSERT_EQ(order.size(), 6u);
  // Both small items pop within the first three slots (one greedy item
  // may precede them depending on rotation entry order), never last.
  std::size_t s1_at = order.size();
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] == "s1") s1_at = i;
  EXPECT_LE(s1_at, 2u) << "small lane starved behind greedy backlog";
}

TEST(DrrQueueTest, GiantItemDoesNotStarveButDoesNotSpin) {
  // A head far above the quantum is granted its rounds in one closed-form
  // step; this test pins the *behavior* (everything pops, cheap lane
  // first) — the O(clients) bound is what makes it terminate fast.
  DrrQueue<int> queue(1);
  queue.push("whale", 1'000'000, 1);
  queue.push("minnow", 1, 2);
  int out = 0;
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out, 2);  // cheap item covered first
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(DrrQueueTest, EmptiedLaneForfeitsDeficit) {
  DrrQueue<int> queue(100);
  queue.push("a", 1, 1);
  int out = 0;
  ASSERT_TRUE(queue.pop(&out));  // lane emptied, ~99 credit forfeited
  // Re-joining the rotation, the lane starts from zero credit: an item
  // costing more than one fresh quantum needs new earnings, so a
  // competing lane's cheap item goes first.
  queue.push("a", 150, 10);
  queue.push("b", 1, 20);
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out, 10);
}

// ---------------------------------------------------------------------------
// Unit: Brownout hysteresis.

TEST(BrownoutTest, QueueThresholdsWithHysteresis) {
  Brownout brownout(16, 0);
  EXPECT_EQ(brownout.update(7, 0), 0);   // below L1 entry (8)
  EXPECT_EQ(brownout.update(8, 0), 1);   // enter L1 at 1/2
  EXPECT_EQ(brownout.update(5, 0), 1);   // latched: exit needs < 1/4
  EXPECT_EQ(brownout.update(13, 0), 1);  // below L2 entry (14)
  EXPECT_EQ(brownout.update(14, 0), 2);  // enter L2 at 7/8
  EXPECT_EQ(brownout.update(9, 0), 2);   // latched: exit needs < 1/2
  EXPECT_EQ(brownout.update(7, 0), 1);   // L2 -> L1
  EXPECT_EQ(brownout.update(4, 0), 1);   // still >= 1/4
  EXPECT_EQ(brownout.update(3, 0), 0);   // healthy again
}

TEST(BrownoutTest, RssWatermarkTriggersIndependently) {
  const std::uint64_t max_rss = 1000;
  Brownout brownout(16, max_rss);
  EXPECT_EQ(brownout.update(0, 790), 0);
  EXPECT_EQ(brownout.update(0, 800), 1);  // >= 0.80 max
  EXPECT_EQ(brownout.update(0, 950), 2);  // >= 0.95 max
  EXPECT_EQ(brownout.update(0, 860), 2);  // exit L2 needs < 0.85
  EXPECT_EQ(brownout.update(0, 840), 1);
  EXPECT_EQ(brownout.update(0, 710), 1);  // exit L1 needs < 0.70
  EXPECT_EQ(brownout.update(0, 690), 0);
}

TEST(BrownoutTest, ZeroWatermarkDisablesRssLeg) {
  Brownout brownout(16, 0);
  EXPECT_EQ(brownout.update(0, 1ull << 40), 0);
}

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
// Unit: protocol extensions.

TEST(OverloadProtocolTest, ParsesHello) {
  const Command cmd = parse_command("HELLO client=alice");
  EXPECT_EQ(cmd.kind, Command::Kind::kHello);
  EXPECT_EQ(cmd.client, "alice");
  EXPECT_EQ(parse_command("HELLO").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("HELLO client=").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("HELLO client=no way").kind,
            Command::Kind::kInvalid);
}

TEST(OverloadProtocolTest, ParsesRunClientAndPriority) {
  const Command cmd =
      parse_command("RUN workload=uniform;requests=10 client=bob priority=2");
  EXPECT_EQ(cmd.kind, Command::Kind::kRun);
  EXPECT_EQ(cmd.client, "bob");
  EXPECT_EQ(cmd.priority, 2);
  EXPECT_EQ(parse_command("RUN spec priority=1").priority, 1);
  EXPECT_EQ(parse_command("RUN spec").priority, 1);
  EXPECT_EQ(parse_command("RUN spec priority=3").kind,
            Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("RUN spec client=b@d").kind,
            Command::Kind::kInvalid);
}

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

TEST(OverloadProtocolTest, RoundTripsWelcomeRejectResetOk) {
  const ServerLine welcome = parse_server_line(msg_welcome("alice"));
  EXPECT_EQ(welcome.kind, ServerLine::Kind::kWelcome);
  EXPECT_EQ(welcome.text, "alice");

  const ServerLine reject = parse_server_line(msg_reject(350, "shed"));
  EXPECT_EQ(reject.kind, ServerLine::Kind::kReject);
  EXPECT_EQ(reject.retry_ms, 350u);
  EXPECT_EQ(reject.status, "shed");
  EXPECT_EQ(parse_server_line(msg_reject(250)).status, "queue_full");

  const ServerLine resetok = parse_server_line(msg_resetok(3));
  EXPECT_EQ(resetok.kind, ServerLine::Kind::kResetOk);
  EXPECT_EQ(resetok.lines, 3u);
}

TEST(OverloadProtocolTest, StatsCarriesOverloadFields) {
  StatsReport in;
  in.shed = 7;
  in.stalled = 2;
  in.brownout = 1;
  in.clients = 3;
  const std::string line = msg_stats(in);
  const StatsReport out = parse_stats(line.substr(line.find(' ') + 1));
  EXPECT_EQ(out.shed, 7u);
  EXPECT_EQ(out.stalled, 2u);
  EXPECT_EQ(out.brownout, 1u);
  EXPECT_EQ(out.clients, 3u);
}

// ---------------------------------------------------------------------------
// End-to-end: daemon + client.

TEST_F(OverloadTest, HelloBindsAndBadNamesAreRefused) {
  DaemonFixture fixture(small_options("hello"));
  fixture.client.hello("alice");
  // Rebinding mid-connection is allowed.
  fixture.client.hello("alice2");
  EXPECT_THROW(fixture.client.hello("not a name"), SpecError);
  // The connection survives the refusal.
  fixture.client.ping();
}

TEST_F(OverloadTest, QuotaRateRefusesWithHonestHint) {
  ServeOptions options = small_options("quota_rate");
  options.quota_rps = 0.01;  // refill far slower than the test runs
  options.quota_burst = 1;
  DaemonFixture fixture(options);
  fixture.client.hello("alice");

  const Client::Submission first = fixture.client.submit(tiny_spec(1));
  ASSERT_TRUE(first.accepted);
  const Client::Submission second = fixture.client.submit(tiny_spec(2));
  EXPECT_TRUE(second.rejected);
  EXPECT_EQ(second.reason, "quota");
  EXPECT_GT(second.retry_ms, 0u);

  EXPECT_EQ(fixture.client.collect(first.id).status, "ok");
  const StatsReport stats = fixture.client.stats_report();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_GE(stats.clients, 1u);
}

TEST_F(OverloadTest, NegativeQuotaDefaultsFailStartup) {
  // A negative rate once meant "unlimited" and a negative burst "derive
  // it from the rate": both are refused, as the quota file refuses them.
  for (const auto& [rps, burst] : {std::pair{-1.0, 1.0}, std::pair{1.0, -1.0},
                                   std::pair{std::nan(""), 0.0}}) {
    ServeOptions options = small_options("quota_negative");
    options.quota_rps = rps;
    options.quota_burst = burst;
    Daemon daemon(options);
    EXPECT_THROW(daemon.start(), SpecError) << rps << " " << burst;
    EXPECT_FALSE(std::filesystem::exists(options.socket_path));
  }
}

TEST_F(OverloadTest, QuotaConcurrentCapsInFlightPerClient) {
  ServeOptions options = small_options("quota_conc");
  options.quota_concurrent = 1;
  DaemonFixture fixture(options);
  fixture.client.hello("alice");

  const Client::Submission first = fixture.client.submit(kLongSpec);
  ASSERT_TRUE(first.accepted);
  const Client::Submission second = fixture.client.submit(tiny_spec(4));
  EXPECT_TRUE(second.rejected);
  EXPECT_EQ(second.reason, "quota");

  // A different tenant is not throttled by alice's cap.
  Client other;
  other.connect(fixture.daemon.options().socket_path);
  other.hello("bob");
  const Client::Submission third = other.submit(tiny_spec(5));
  EXPECT_TRUE(third.accepted);

  EXPECT_TRUE(fixture.client.cancel(first.id));
  EXPECT_NE(fixture.client.collect(first.id).status, "ok");
  EXPECT_EQ(other.collect(third.id).status, "ok");
  // With the slot released, alice admits again.
  EXPECT_TRUE(fixture.client.submit(tiny_spec(6)).accepted);
  other.disconnect();
}

TEST_F(OverloadTest, FairAdmissionDoesNotStarveSmallClient) {
  // The assertion compares wall-clock stamps taken by two collector
  // threads, so the contended runs must be milliseconds each: under DRR
  // the small tenant's last run finishes at least two run-times before
  // the greedy backlog drains, and that gap has to dwarf scheduler
  // jitter on the stamping side (tiny 4000-request runs finish tens of
  // microseconds apart and flake).
  const auto lane_spec = [](int seed) {
    return "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;"
           "requests=200000;trials=1;checkpoints=2;seed=" +
           std::to_string(seed);
  };
  ServeOptions options = small_options("fairness");
  options.queue_limit = 64;
  options.drr_quantum = 200000;  // one lane run's cost per round
  DaemonFixture fixture(options);

  Client& greedy = fixture.client;
  greedy.hello("greedy");
  Client small;
  small.connect(fixture.daemon.options().socket_path);
  small.hello("small");

  // A long run plugs the single executor first, so every later
  // submission genuinely queues — without it, tiny runs can drain as
  // fast as they arrive and the DRR order would be a race, not a
  // property.  greedy then floods; small's two runs arrive behind the
  // backlog.
  std::vector<std::uint64_t> greedy_ids, small_ids;
  const Client::Submission plug = greedy.submit(kLongSpec);
  ASSERT_TRUE(plug.accepted) << plug.error;
  greedy_ids.push_back(plug.id);
  for (int i = 0; i < 4; ++i) {
    const Client::Submission sub = greedy.submit(lane_spec(20 + i));
    ASSERT_TRUE(sub.accepted) << sub.error;
    greedy_ids.push_back(sub.id);
  }
  for (int i = 0; i < 2; ++i) {
    const Client::Submission sub = small.submit(lane_spec(30 + i));
    ASSERT_TRUE(sub.accepted) << sub.error;
    small_ids.push_back(sub.id);
  }

  // Each side collects on its own connection, stamping each DONE.
  std::atomic<std::uint64_t> greedy_last_ns{0}, small_last_ns{0};
  std::thread greedy_thread([&] {
    for (const std::uint64_t id : greedy_ids) {
      ASSERT_EQ(greedy.collect(id).status, "ok");
      greedy_last_ns.store(monotonic_now_ns());
    }
  });
  std::thread small_thread([&] {
    for (const std::uint64_t id : small_ids) {
      ASSERT_EQ(small.collect(id).status, "ok");
      small_last_ns.store(monotonic_now_ns());
    }
  });
  greedy_thread.join();
  small_thread.join();
  small.disconnect();

  // DRR interleaves the lanes, so the small tenant finishes both runs
  // before the greedy backlog drains.  FIFO would finish small last.
  EXPECT_LT(small_last_ns.load(), greedy_last_ns.load())
      << "small client was starved behind the greedy backlog";
}

TEST_F(OverloadTest, BrownoutShedsLowPriorityFirst) {
  ServeOptions options = small_options("shed");
  options.queue_limit = 4;  // L1 once two runs are queued
  DaemonFixture fixture(options);

  const Client::Submission running = fixture.client.submit(kLongSpec);
  ASSERT_TRUE(running.accepted);
  std::vector<std::uint64_t> queued;
  for (int i = 0; i < 2; ++i) {
    const Client::Submission sub = fixture.client.submit(tiny_spec(40 + i));
    ASSERT_TRUE(sub.accepted) << sub.error;
    queued.push_back(sub.id);
  }

  // Queue depth 2 of 4 -> brownout level 1: priority 0 is shed with an
  // inflated hint, the default priority still gets in.
  fixture.client.set_priority(0);
  const Client::Submission shed = fixture.client.submit(tiny_spec(42));
  EXPECT_TRUE(shed.rejected);
  EXPECT_EQ(shed.reason, "shed");
  EXPECT_GT(shed.retry_ms, 0u);
  fixture.client.set_priority(2);
  const Client::Submission urgent = fixture.client.submit(tiny_spec(43));
  ASSERT_TRUE(urgent.accepted) << urgent.error;
  queued.push_back(urgent.id);
  fixture.client.set_priority(1);

  const StatsReport stats = fixture.client.stats_report();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.brownout, 1u);

  EXPECT_TRUE(fixture.client.cancel(running.id));
  EXPECT_NE(fixture.client.collect(running.id).status, "ok");
  for (const std::uint64_t id : queued)
    EXPECT_EQ(fixture.client.collect(id).status, "ok");

  // The burst has drained: the level recovers without a new admission
  // (and without the RSS/progress tick) to re-evaluate it.
  EXPECT_EQ(fixture.client.stats_report().brownout, 0u);
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
