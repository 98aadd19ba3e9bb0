// The serving subsystem end to end: protocol parsing, the LRU results
// cache, the client's line framing against a scripted fake daemon, and a
// real in-process Daemon spoken to over its AF_UNIX socket —
// admission, canonical-spec cache hits, cooperative cancellation,
// backpressure, error reporting, and several runs multiplexed on one
// client connection.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/results_cache.hpp"
#include "sim/report.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;

// ---------------------------------------------------------------- cache

TEST(ResultsCache, HitMissAndStats) {
  obs::Registry registry;
  ResultsCache cache(4, "", registry);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", "payload-a");
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-a");
  const ResultsCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultsCache, EvictsLeastRecentlyUsed) {
  obs::Registry registry;
  ResultsCache cache(2, "", registry);
  cache.put("a", "A");
  cache.put("b", "B");
  ASSERT_TRUE(cache.get("a").has_value());  // "b" is now least recent
  cache.put("c", "C");                      // evicts "b"
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultsCache, PutRefreshesExistingKey) {
  obs::Registry registry;
  ResultsCache cache(2, "", registry);
  cache.put("a", "old");
  cache.put("b", "B");
  cache.put("a", "new");  // refresh, not duplicate; "a" most recent again
  cache.put("c", "C");    // evicts "b"
  EXPECT_EQ(cache.get("a").value_or(""), "new");
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultsCache, ZeroCapacityDisables) {
  obs::Registry registry;
  ResultsCache cache(0, "", registry);
  cache.put("a", "A");
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// -------------------------------------------------------------- protocol

TEST(Protocol, ParsesCommands) {
  EXPECT_EQ(parse_command("PING").kind, Command::Kind::kPing);
  const Command run = parse_command("RUN workload=zipf;requests=10");
  EXPECT_EQ(run.kind, Command::Kind::kRun);
  EXPECT_EQ(run.spec, "workload=zipf;requests=10");
  const Command cancel = parse_command("CANCEL 17");
  EXPECT_EQ(cancel.kind, Command::Kind::kCancel);
  EXPECT_EQ(cancel.id, 17u);
  // A trailing space after the run id is accepted, as after ATTACH's.
  const Command spaced = parse_command("CANCEL 17 ");
  EXPECT_EQ(spaced.kind, Command::Kind::kCancel);
  EXPECT_EQ(spaced.id, 17u);
  EXPECT_EQ(parse_command("STATS").kind, Command::Kind::kStats);
  EXPECT_EQ(parse_command("SHUTDOWN").kind, Command::Kind::kShutdown);
}

TEST(Protocol, RejectsMalformedCommands) {
  EXPECT_EQ(parse_command("FROB").kind, Command::Kind::kInvalid);
  EXPECT_NE(parse_command("FROB").error.find("unknown command"),
            std::string::npos);
  EXPECT_EQ(parse_command("RUN").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("CANCEL").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("CANCEL x7").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("CANCEL -1").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("CANCEL 17 x").kind, Command::Kind::kInvalid);
}

TEST(Protocol, ServerLinesRoundTrip) {
  EXPECT_EQ(parse_server_line(msg_pong()).kind, ServerLine::Kind::kPong);
  const ServerLine acc = parse_server_line(msg_accepted(42));
  EXPECT_EQ(acc.kind, ServerLine::Kind::kAccepted);
  EXPECT_EQ(acc.id, 42u);
  const ServerLine rej = parse_server_line(msg_reject(250));
  EXPECT_EQ(rej.kind, ServerLine::Kind::kReject);
  EXPECT_EQ(rej.retry_ms, 250u);
  const ServerLine res = parse_server_line(msg_result(7, true, 5));
  EXPECT_EQ(res.kind, ServerLine::Kind::kResult);
  EXPECT_EQ(res.id, 7u);
  EXPECT_TRUE(res.cached);
  EXPECT_EQ(res.lines, 5u);
  const ServerLine done = parse_server_line(msg_done(7, "cancelled"));
  EXPECT_EQ(done.kind, ServerLine::Kind::kDone);
  EXPECT_EQ(done.status, "cancelled");
  // A cache hit's one-buffer reply is exactly its three messages.
  const std::string payload = "alg,b\nbma,4\n";
  EXPECT_EQ(msg_cached_run(12345, payload),
            msg_accepted(12345) + "\n" +
                msg_result_unit(12345, /*cached=*/true, payload) +
                msg_done(12345, "ok") + "\n");
}

TEST(Protocol, ParsesRunDeadlineOption) {
  const Command run = parse_command("RUN workload=zipf deadline_ms=250");
  EXPECT_EQ(run.kind, Command::Kind::kRun);
  EXPECT_EQ(run.spec, "workload=zipf");
  EXPECT_EQ(run.deadline_ms, 250u);
  // No option means no deadline.
  EXPECT_EQ(parse_command("RUN workload=zipf").deadline_ms, 0u);
  // Zero, non-numeric, and unknown options are refused, not ignored.
  EXPECT_EQ(parse_command("RUN w=z deadline_ms=0").kind,
            Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("RUN w=z deadline_ms=abc").kind,
            Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("RUN w=z bogus=1").kind, Command::Kind::kInvalid);
}

TEST(Protocol, ParsesAttachCommand) {
  const Command plain = parse_command("ATTACH 17");
  EXPECT_EQ(plain.kind, Command::Kind::kAttach);
  EXPECT_EQ(plain.id, 17u);
  EXPECT_EQ(plain.from, 1u);  // default: replay everything
  const Command resumed = parse_command("ATTACH 17 from=5");
  EXPECT_EQ(resumed.kind, Command::Kind::kAttach);
  EXPECT_EQ(resumed.id, 17u);
  EXPECT_EQ(resumed.from, 5u);
  // Missing/garbled id, zero or non-numeric from, unknown options: all
  // refused, never guessed at.
  EXPECT_EQ(parse_command("ATTACH").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("ATTACH x7").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("ATTACH 1 from=0").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("ATTACH 1 from=abc").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("ATTACH 1 bogus=2").kind, Command::Kind::kInvalid);
}

TEST(Protocol, OptionRefusalsNameTheTokenAndTheKnownOptions) {
  // Options read through ParamMap: every refusal names what was wrong and
  // lists what the verb accepts.
  const struct {
    const char* line;
    const char* names;
    const char* known;
  } rows[] = {
      {"RUN w=z bogus=1", "'bogus'", "deadline_ms=<positive integer>"},
      {"RUN w=z junk_after_spec", "'junk_after_spec'",
       "deadline_ms=<positive integer>"},
      {"RUN w=z deadline_ms=0", "'deadline_ms=0'", "deadline_ms="},
      {"ATTACH 1 from=0", "'from=0'", "from=<positive integer>"},
      {"ATTACH 1 bogus=2", "'bogus'", "from=<positive integer>"},
  };
  for (const auto& row : rows) {
    const Command cmd = parse_command(row.line);
    EXPECT_EQ(cmd.kind, Command::Kind::kInvalid) << row.line;
    EXPECT_NE(cmd.error.find(row.names), std::string::npos)
        << row.line << ": " << cmd.error;
    EXPECT_NE(cmd.error.find(row.known), std::string::npos)
        << row.line << ": " << cmd.error;
  }
  // Extra spaces are separators, and a repeated option replaces the
  // earlier one.
  const Command run =
      parse_command("RUN w=z  deadline_ms=5  deadline_ms=7 ");
  EXPECT_EQ(run.kind, Command::Kind::kRun);
  EXPECT_EQ(run.spec, "w=z");
  EXPECT_EQ(run.deadline_ms, 7u);
}

TEST(Protocol, ParsesShutdownDrainOption) {
  EXPECT_FALSE(parse_command("SHUTDOWN").drain);
  const Command drain = parse_command("SHUTDOWN drain=1");
  EXPECT_EQ(drain.kind, Command::Kind::kShutdown);
  EXPECT_TRUE(drain.drain);
  const Command immediate = parse_command("SHUTDOWN drain=0");
  EXPECT_EQ(immediate.kind, Command::Kind::kShutdown);
  EXPECT_FALSE(immediate.drain);
  EXPECT_EQ(parse_command("SHUTDOWN drain=2").kind, Command::Kind::kInvalid);
  EXPECT_EQ(parse_command("SHUTDOWN bogus").kind, Command::Kind::kInvalid);
}

TEST(Protocol, AttachedLineRoundTrips) {
  const ServerLine at = parse_server_line(msg_attached(9, "running", 4));
  EXPECT_EQ(at.kind, ServerLine::Kind::kAttached);
  EXPECT_EQ(at.id, 9u);
  EXPECT_EQ(at.status, "running");
  EXPECT_EQ(at.seq, 4u);
}

TEST(Protocol, CheckpointLineCarriesSeq) {
  sim::Checkpoint c;
  c.requests = 100;
  c.routing_cost = 7;
  c.total_cost = 9;
  const ServerLine line =
      parse_server_line(msg_checkpoint(3, 12, "bma", 42, c));
  EXPECT_EQ(line.kind, ServerLine::Kind::kCheckpoint);
  EXPECT_EQ(line.id, 3u);
  EXPECT_EQ(line.seq, 12u);
}

TEST(Protocol, StatsReportRoundTrips) {
  StatsReport r;
  r.active = 1;
  r.queued = 2;
  r.cache_hits = 3;
  r.cache_misses = 4;
  r.cache_entries = 5;
  r.completed = 6;
  r.cancelled = 7;
  r.deadline_exceeded = 8;
  r.crashed = 9;
  r.rejected = 10;
  r.quarantined = 11;
  r.disk_hits = 12;
  r.disk_corrupt = 13;
  r.recovered = 14;
  r.attached = 15;
  r.stalled = 16;
  const ServerLine line = parse_server_line(msg_stats(r));
  ASSERT_EQ(line.kind, ServerLine::Kind::kStats);
  const StatsReport parsed = parse_stats(line.text);
  EXPECT_EQ(parsed.active, 1u);
  EXPECT_EQ(parsed.queued, 2u);
  EXPECT_EQ(parsed.cache_hits, 3u);
  EXPECT_EQ(parsed.cache_misses, 4u);
  EXPECT_EQ(parsed.cache_entries, 5u);
  EXPECT_EQ(parsed.completed, 6u);
  EXPECT_EQ(parsed.cancelled, 7u);
  EXPECT_EQ(parsed.deadline_exceeded, 8u);
  EXPECT_EQ(parsed.crashed, 9u);
  EXPECT_EQ(parsed.rejected, 10u);
  EXPECT_EQ(parsed.quarantined, 11u);
  EXPECT_EQ(parsed.disk_hits, 12u);
  EXPECT_EQ(parsed.disk_corrupt, 13u);
  EXPECT_EQ(parsed.recovered, 14u);
  EXPECT_EQ(parsed.attached, 15u);
  EXPECT_EQ(parsed.stalled, 16u);
}

TEST(Protocol, DoneStatusCarriesDeadlineExceeded) {
  const ServerLine done = parse_server_line(msg_done(3, "deadline_exceeded"));
  EXPECT_EQ(done.kind, ServerLine::Kind::kDone);
  EXPECT_EQ(done.status, "deadline_exceeded");
}

TEST(Protocol, SanitizeFoldsNewlines) {
  // Error text travels on one line; embedded newlines must not let a spec
  // fragment masquerade as a protocol line.
  EXPECT_EQ(parse_server_line(msg_error("bad\nRUN x")).text, "bad RUN x");
}

// ------------------------------------------------------- client framing

/// A one-connection stand-in for the daemon on a temporary AF_UNIX
/// socket: it answers the i-th line it receives with replies[i], in one
/// write, or one byte per send() when `trickle`.  It holds the connection
/// until the client leaves.
class FakeDaemon {
 public:
  FakeDaemon(const std::string& tag, std::vector<std::string> replies,
             bool trickle)
      : path_("/tmp/rdcn_serve_test_" + std::to_string(::getpid()) + "_" +
              tag + ".sock") {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path_.c_str());
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0)
      ADD_FAILURE() << "cannot listen on " << path_;
    thread_ = std::thread([this, replies = std::move(replies), trickle] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::size_t next = 0;
      char c = 0;
      while (::recv(fd, &c, 1, 0) == 1) {
        if (c != '\n' || next == replies.size()) continue;
        const std::string& reply = replies[next++];
        for (std::size_t sent = 0; sent < reply.size();) {
          const ssize_t n =
              ::send(fd, reply.data() + sent, trickle ? 1 : reply.size() - sent,
                     MSG_NOSIGNAL);
          if (n <= 0) break;
          sent += static_cast<std::size_t>(n);
        }
      }
      ::close(fd);
    });
  }
  ~FakeDaemon() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept() still waiting
    thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
  FakeDaemon(const FakeDaemon&) = delete;
  FakeDaemon& operator=(const FakeDaemon&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread thread_;
};

/// What the client made of one scripted conversation: a cached run, then
/// two runs whose streams interleave.
struct Conversation {
  std::vector<Client::Submission> submissions;
  std::vector<Client::RunOutput> outputs;
};

Conversation converse(bool trickle) {
  const std::vector<std::string> replies = {
      "ACCEPTED id=7\nRESULT id=7 cached=1 lines=2\nalg,b\nbma,4\n"
      "DONE id=7 status=ok\n",
      "ACCEPTED id=8\n",
      "ACCEPTED id=9\n"
      "CHECKPOINT id=8 seq=1 label=bma(b=4) seed=1 requests=5 routing=3 "
      "total=3 wall=0.1\n"
      "CHECKPOINT id=9 seq=1 label=bma(b=2) seed=1 requests=5 routing=4 "
      "total=4 wall=0.1\n"
      "RESULT id=9 cached=0 lines=1\nbma,2\n"
      "CHECKPOINT id=8 seq=2 label=bma(b=4) seed=1 requests=9 routing=5 "
      "total=5 wall=0.2\n"
      "DONE id=9 status=ok\n"
      "RESULT id=8 cached=0 lines=3\nalg,b\n\nbma,4\n"
      "DONE id=8 status=ok\n"};
  FakeDaemon fake(trickle ? "trickle" : "whole", replies, trickle);
  Client client;
  client.set_read_timeout_seconds(10);
  client.connect(fake.path());
  Conversation out;
  out.submissions.push_back(client.submit("cached"));
  out.outputs.push_back(client.collect(out.submissions.back().id));
  out.submissions.push_back(client.submit("a"));
  out.submissions.push_back(client.submit("b"));
  out.outputs.push_back(client.collect(9));
  out.outputs.push_back(client.collect(8));
  return out;
}

TEST(ClientFraming, SplitRepliesReadLikeWholeOnes) {
  const Conversation whole = converse(/*trickle=*/false);
  const Conversation split = converse(/*trickle=*/true);
  ASSERT_EQ(whole.submissions.size(), 3u);
  ASSERT_EQ(whole.outputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Client::Submission& a = whole.submissions[i];
    const Client::Submission& b = split.submissions[i];
    EXPECT_TRUE(a.accepted);
    EXPECT_EQ(a.id, 7 + i);
    EXPECT_EQ(std::tie(a.id, a.accepted, a.rejected, a.retry_ms, a.reason,
                       a.error),
              std::tie(b.id, b.accepted, b.rejected, b.retry_ms, b.reason,
                       b.error));
    const Client::RunOutput& x = whole.outputs[i];
    const Client::RunOutput& y = split.outputs[i];
    EXPECT_EQ(x.status, "ok");
    EXPECT_EQ(std::tie(x.status, x.cached, x.csv, x.checkpoints, x.error),
              std::tie(y.status, y.cached, y.csv, y.checkpoints, y.error));
  }
  EXPECT_TRUE(whole.outputs[0].cached);
  EXPECT_EQ(whole.outputs[0].csv, "alg,b\nbma,4\n");
  EXPECT_EQ(whole.outputs[1].csv, "bma,2\n");
  EXPECT_EQ(whole.outputs[1].checkpoints, 1u);
  EXPECT_EQ(whole.outputs[2].csv, "alg,b\n\nbma,4\n");
  EXPECT_EQ(whole.outputs[2].checkpoints, 2u);
}

TEST(ClientFraming, ALineOverOneMebibyteIsAnIoError) {
  FakeDaemon fake("long_line", {"PONG" + std::string(1u << 20, 'x')},
                  /*trickle=*/false);
  Client client;
  client.set_read_timeout_seconds(10);
  client.connect(fake.path());
  try {
    client.ping();
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kIo) << e.what();
  }
}

// ------------------------------------------------------------ daemon e2e

/// A tiny scenario (same shape as the CLI smoke sweep) and an equivalent
/// twin with every component's parameters reordered.
constexpr const char* kSmallSpec =
    "topology=torus:rows=3,cols=3;workload=flow_pool:pairs=30,skew=1.1;"
    "algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;"
    "checkpoints=4;seed=7";
constexpr const char* kSmallSpecReordered =
    "topology=torus:cols=3,rows=3;workload=flow_pool:skew=1.1,pairs=30;"
    "algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;"
    "checkpoints=4;seed=7";
/// Long enough that cancellation at the first checkpoint leaves most of
/// the run unserved (first checkpoint after 100k of 1.6M requests).
constexpr const char* kLongSpec =
    "workload=zipf:skew=1.1;algorithms=bma;b=4;racks=16;requests=1600000;"
    "trials=1;checkpoints=16;seed=3";

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/rdcn_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// The CSV a direct in-process run produces — what the daemon must serve
/// bit-identically.
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

TEST(Daemon, PingAndSpecErrorsKeepDaemonAlive) {
  DaemonFixture f(small_options("ping"));
  f.client.ping();

  f.client.send_line("FROB");
  EXPECT_EQ(parse_server_line(f.client.read_line()).kind,
            ServerLine::Kind::kError);

  // Unknown algorithm: refused with the registry's suggestion, no run id.
  const Client::Submission bad =
      f.client.submit("workload=zipf;algorithms=r_bmaa;requests=100");
  EXPECT_FALSE(bad.accepted);
  EXPECT_NE(bad.error.find("r_bma"), std::string::npos) << bad.error;

  // Unparseable spec text.
  EXPECT_FALSE(f.client.submit("no_such_field=1").error.empty());
  // Shape the registries can't check: grid needs requests >= checkpoints.
  EXPECT_FALSE(
      f.client.submit("workload=zipf;requests=4;checkpoints=8").error.empty());
  // Zero trials of a randomized algorithm: refused before it takes an id.
  const Client::Submission no_trials = f.client.submit(
      "racks=10;requests=1000;trials=0;algorithms=r_bma");
  EXPECT_FALSE(no_trials.accepted);
  EXPECT_EQ(no_trials.error, "trials must be positive: 'r_bma' is randomized");

  f.client.ping();  // still serving after every refusal
}

TEST(Daemon, ServedCsvMatchesDirectRunByteForByte) {
  const std::string expected = direct_csv(kSmallSpec);
  DaemonFixture f(small_options("csv"));
  const Client::Submission sub = f.client.submit(kSmallSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_FALSE(out.cached);
  EXPECT_GT(out.checkpoints, 0u);
  EXPECT_EQ(out.csv, expected);
}

TEST(Daemon, ReorderedSpecIsServedFromCache) {
  DaemonFixture f(small_options("cache"));
  const Client::Submission first = f.client.submit(kSmallSpec);
  ASSERT_TRUE(first.accepted) << first.error;
  const Client::RunOutput executed = f.client.collect(first.id);
  ASSERT_EQ(executed.status, "ok") << executed.error;
  ASSERT_FALSE(executed.cached);

  // Same experiment, parameters permuted: canonical keying makes it a hit
  // (served without re-running — executors couldn't matter less here).
  const Client::Submission second = f.client.submit(kSmallSpecReordered);
  ASSERT_TRUE(second.accepted) << second.error;
  EXPECT_NE(second.id, first.id);
  const Client::RunOutput cached = f.client.collect(second.id);
  EXPECT_EQ(cached.status, "ok") << cached.error;
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(cached.csv, executed.csv);
  EXPECT_GE(f.daemon.stats_report().cache_hits, 1u);
}

TEST(Daemon, CancelStopsRunAtChunkBoundary) {
  DaemonFixture f(small_options("cancel"));
  // Warm the pool first so the spawn counter is settled.
  const Client::Submission warm = f.client.submit(kSmallSpec);
  ASSERT_TRUE(warm.accepted) << warm.error;
  ASSERT_EQ(f.client.collect(warm.id).status, "ok");
  const std::uint64_t spawned = sim::ThreadPool::instance().threads_spawned();

  const Client::Submission sub = f.client.submit(kLongSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;
  bool cancel_sent = false;
  const Client::RunOutput out =
      f.client.collect(sub.id, [&](const std::string&) {
        if (!cancel_sent) {
          cancel_sent = true;
          f.client.send_line("CANCEL " + std::to_string(sub.id));
        }
      });
  ASSERT_TRUE(cancel_sent);  // at least one checkpoint streamed
  EXPECT_EQ(out.status, "cancelled");
  EXPECT_TRUE(out.csv.empty());
  // Cancellation reaches the chunk loop cooperatively — no pool teardown,
  // no replacement threads.
  EXPECT_EQ(sim::ThreadPool::instance().threads_spawned(), spawned);

  // The executor slot is free again: a fresh run completes normally.
  const Client::Submission next = f.client.submit(kSmallSpec);
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_EQ(f.client.collect(next.id).status, "ok");
}

TEST(Daemon, CancelUnknownIdReportsError) {
  DaemonFixture f(small_options("cancel_unknown"));
  EXPECT_FALSE(f.client.cancel(999));
}

TEST(Daemon, QueueFullRejectsWithRetryHint) {
  // executors=0: runs are admitted but never drained, so the queue fills
  // deterministically.
  ServeOptions options = small_options("backpressure");
  options.executors = 0;
  options.queue_limit = 2;
  options.retry_hint_ms = 350;
  DaemonFixture f(std::move(options));

  // Distinct specs (different seeds) so nothing is ever answerable from
  // cache.
  const Client::Submission a =
      f.client.submit("workload=zipf;requests=1000;seed=1");
  const Client::Submission b =
      f.client.submit("workload=zipf;requests=1000;seed=2");
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  const Client::Submission c =
      f.client.submit("workload=zipf;requests=1000;seed=3");
  EXPECT_FALSE(c.accepted);
  EXPECT_TRUE(c.rejected);
  EXPECT_EQ(c.retry_ms, 350u);

  const std::string stats = f.client.stats();
  EXPECT_NE(stats.find("queued=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("active=0"), std::string::npos) << stats;

  // Cancelling a queued (never started) run is acknowledged too.
  EXPECT_TRUE(f.client.cancel(a.id));
}

TEST(Daemon, RunsOnOneConnectionAreCollectedInEitherOrder) {
  const std::string expected = direct_csv(kSmallSpec);
  DaemonFixture f(small_options("multiplex"));
  const Client::Submission warm = f.client.submit(kSmallSpec);
  ASSERT_TRUE(warm.accepted) << warm.error;
  ASSERT_EQ(f.client.collect(warm.id).status, "ok");

  // A long run streams checkpoints while a cache hit's RESULT and DONE
  // arrive behind it on the same connection.  Each collect(id) must pick
  // out its own run's lines, whichever run is collected first.
  for (const bool long_first : {true, false}) {
    SCOPED_TRACE(long_first ? "long run collected first"
                            : "cache hit collected first");
    const Client::Submission long_run = f.client.submit(kLongSpec);
    ASSERT_TRUE(long_run.accepted) << long_run.error;
    const Client::Submission hit = f.client.submit(kSmallSpec);
    ASSERT_TRUE(hit.accepted) << hit.error;

    Client::RunOutput small;
    if (!long_first) small = f.client.collect(hit.id);
    // The run may finish on its own before the cancel lands.
    f.client.cancel(long_run.id);
    const Client::RunOutput cut = f.client.collect(long_run.id);
    EXPECT_TRUE(cut.status == "cancelled" || cut.status == "ok") << cut.status;
    if (long_first) small = f.client.collect(hit.id);

    EXPECT_EQ(small.status, "ok") << small.error;
    EXPECT_TRUE(small.cached);
    EXPECT_EQ(small.csv, expected);
  }
  // Nothing is left over for the next command's reply.
  const Client::Submission next = f.client.submit(kSmallSpecReordered);
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_EQ(f.client.collect(next.id).csv, expected);
}

TEST(Daemon, RequestsWhileARunStreamsLeaveItsStreamWhole) {
  DaemonFixture f(small_options("interleave"));
  const Client::Submission sub = f.client.submit(kLongSpec);
  ASSERT_TRUE(sub.accepted) << sub.error;

  // Keep the connection busy with other requests while the run streams
  // its checkpoints (and usually finishes) behind them.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    f.client.ping();
    EXPECT_NE(f.client.stats().find("active="), std::string::npos);
    EXPECT_NE(f.client.metrics().find("rdcn_serve_runs_total"),
              std::string::npos);
  }
  const Client::RunOutput out = f.client.collect(sub.id);
  EXPECT_EQ(out.status, "ok") << out.error;
  EXPECT_EQ(out.checkpoints, 16u);  // checkpoints=16, one task
  EXPECT_FALSE(out.csv.empty());
  f.client.ping();
}

TEST(Daemon, ShutdownCommandUnblocksWait) {
  DaemonFixture f(small_options("shutdown"));
  std::thread waiter([&] { f.daemon.wait_for_shutdown_command(); });
  f.client.shutdown_daemon();
  waiter.join();  // returns because SHUTDOWN was received, not stop()
}

}  // namespace
