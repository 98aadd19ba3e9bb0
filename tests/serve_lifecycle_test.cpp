// The serve daemon's run lifecycle (serve/lifecycle.hpp).
//
// Model check: 10^4 seeded random schedules drive serve::Lifecycle and a
// small reference model side by side, in the style of QuickCheck's
// state-machine testing (Claessen & Hughes, ICFP 2000).  A schedule mixes
// RUN (cache hits included), CANCEL, ATTACH from=, RESET of one spec and
// of all, deadline and stall ticks, TTL aging, executor outcomes (ok,
// SpecError, crash, cancelled), disconnects with and without a journal,
// drain, stop, and restarts that replay the records the class emitted.
// After every step the class's journal records, wire lines and STATS run
// fields must equal the model's, and every connection's stream is checked
// for the ordering guarantees.  A restart must recover exactly the
// model's incomplete runs (deadlines included), streaks and id lease.
//
// Three restart cases: a new run never takes the id of a cache hit served
// before a crash, a recovered run keeps its deadline, counted from the
// restart, and a recovered run whose spec no longer parses ends `error` at
// once.  Socket level: a queued run that is cancelled, expires or is orphaned
// ends at once; served payloads byte-match direct runs; an executor crash
// ends ERROR internal= + DONE status=error; stop() leaves no thread or fd
// the daemon made.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/lifecycle.hpp"
#include "sim/report.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;

constexpr std::uint64_t kMs = 1'000'000;
constexpr int kSchedules = 10'000;
constexpr std::uint64_t kSeed = 20291019;
constexpr int kSpecs = 6;

std::string spec_name(int i) { return "spec=" + std::to_string(i); }
std::string payload_of(const std::string& spec) {
  return "cell," + spec + "\n";
}

sim::Checkpoint test_checkpoint() {
  sim::Checkpoint c;
  c.requests = 100;
  c.routing_cost = 7;
  c.total_cost = 9;
  return c;
}

/// Cancellation causes by precedence; the model's own statement of it.
int rank(const std::string& cause) {
  return cause == "stalled"             ? 3
         : cause == "deadline_exceeded" ? 2
         : cause == "cancelled"         ? 1
                                        : 0;
}

/// The reference model: the lifecycle rules restated over one record per
/// run, scanned in id order, and the queue as the queued ids in admission
/// order.
struct Model {
  enum class State { kQueued, kRunning };
  struct Run {
    std::uint64_t id = 0;
    std::string spec;
    std::uint64_t deadline_ms = 0;
    bool recovered = false;
    State state = State::kQueued;
    std::string cause;   ///< "" until a cancel cause arrives
    std::string status;  ///< the terminal status, once finished
    bool cancel_requested = false;
    std::uint64_t progress = 0, seq = 0;
    std::vector<std::pair<ConnId, std::uint64_t>> subs;  ///< (conn, from)
    std::deque<std::pair<std::uint64_t, std::string>> ring;
  };
  struct Streak {
    std::size_t count = 0;
    std::uint64_t touched = 0;
  };

  explicit Model(const ServeOptions& o) : opt(o) {}

  bool durable() const { return !opt.journal_dir.empty(); }
  void line(ConnId conn, const std::string& text) {
    lines.emplace_back(conn, text + "\n");
  }
  void reject(ConnId conn) {
    stats.rejected += 1;
    line(conn, "REJECT reason=queue_full");
  }

  std::uint64_t open(const Lifecycle::Submission& s, std::uint64_t now,
                     bool inject) {
    if (draining) {
      line(s.conn, "ERROR reason=draining daemon is shutting down");
      return 0;
    }
    const auto it = streaks.find(s.canonical);
    if (opt.quarantine_threshold > 0 && it != streaks.end()) {
      if (opt.quarantine_ttl_s > 0 &&
          now - it->second.touched > opt.quarantine_ttl_s * 1000 * kMs) {
        records.push_back("streak 0 " + s.canonical);
        streaks.erase(it);
      } else if (it->second.count >= opt.quarantine_threshold) {
        stats.quarantined += 1;
        line(s.conn, "ERROR reason=quarantined consecutive_failures=" +
                         std::to_string(it->second.count) +
                         " spec is quarantined after repeated executor "
                         "crashes");
        return 0;
      }
    }
    if (inject) {
      reject(s.conn);
      return 0;
    }
    // Ids are leased: the first id of each lease journals its bound.
    if (next_id == leased) {
      leased += Lifecycle::kIdLease;
      records.push_back("nextid " + std::to_string(leased));
    }
    return next_id++;
  }

  bool enqueue(const Lifecycle::Submission& s, std::uint64_t id,
               std::uint64_t now) {
    if (queue.size() >= opt.queue_limit) {
      reject(s.conn);
      return false;
    }
    records.push_back("admit3 " + std::to_string(id) + " 1 anon " +
                      std::to_string(s.deadline_ms) + " " + s.canonical);
    line(s.conn, "ACCEPTED id=" + std::to_string(id));
    Run run;
    run.id = id;
    run.spec = s.canonical;
    run.deadline_ms = s.deadline_ms;
    run.subs.emplace_back(s.conn, 1);
    add_queued(std::move(run));
    if (s.deadline_ms > 0) deadlines.emplace(now + s.deadline_ms * kMs, id);
    return true;
  }

  void add_queued(Run run) {
    queue.push_back(run.id);
    stats.queued = queue.size();
    runs.emplace(run.id, std::move(run));
  }

  std::uint64_t pickup(std::uint64_t now) {
    if (queue.empty()) return 0;
    const std::uint64_t id = queue.front();
    queue.pop_front();
    Run& run = runs.at(id);
    run.state = State::kRunning;
    run.progress = now;
    stats.queued = queue.size();
    stats.active += 1;
    return id;
  }

  void checkpoint(std::uint64_t id, std::uint64_t now) {
    Run& run = runs.at(id);
    run.progress = now;
    const std::uint64_t seq = ++run.seq;
    const std::string text =
        msg_checkpoint(id, seq, "L", 7, test_checkpoint()) + "\n";
    for (const auto& [conn, from] : run.subs)
      if (seq >= from) lines.emplace_back(conn, text);
    run.ring.emplace_back(seq, text);
    if (run.ring.size() > 128) run.ring.pop_front();
  }

  /// The executor's outcome: "ok", "spec_error", "crash" or "cancelled".
  bool finish(std::uint64_t id, const std::string& kind, bool cached,
              std::uint64_t now) {
    Run& run = runs.at(id);
    std::string status = kind == "ok" ? "ok" : "error";
    if (kind == "cancelled")
      status = rank(run.cause) > rank("cancelled") ? run.cause : "cancelled";
    return end(run, status, kind, cached, now);
  }

  bool end(Run& run, const std::string& status, const std::string& kind,
           bool cached, std::uint64_t now) {
    bump(status);
    const bool crashed = kind == "crash";
    stats.crashed += crashed;
    bool quarantined = false;
    if (crashed || status == "stalled") {
      Streak& streak = streaks[run.spec];
      streak.count += 1;
      streak.touched = now;
      quarantined = opt.quarantine_threshold > 0 &&
                    streak.count == opt.quarantine_threshold;
      records.push_back("streak " + std::to_string(streak.count) + " " +
                        run.spec);
    } else if (status == "ok" && streaks.erase(run.spec) > 0) {
      records.push_back("streak 0 " + run.spec);
    }
    records.push_back("done " + std::to_string(run.id) + " " + status);
    if (run.state == State::kRunning) {
      stats.active -= 1;
    } else {
      std::erase(queue, run.id);
      stats.queued = queue.size();
    }
    for (const auto& [conn, from] : run.subs) {
      if (kind == "spec_error") line(conn, "ERROR bad spec");
      if (crashed) line(conn, "ERROR internal=boom");
      if (status == "ok")
        lines.emplace_back(
            conn, msg_result_unit(run.id, cached, payload_of(run.spec)));
      line(conn, "DONE id=" + std::to_string(run.id) + " status=" + status);
    }
    run.subs.clear();
    run.status = status;
    recent.push_back(std::move(run));
    if (recent.size() > 256) recent.pop_front();
    runs.erase(recent.back().id);
    return quarantined;
  }

  void bump(const std::string& status) {
    if (status == "ok") stats.completed += 1;
    if (status == "cancelled") stats.cancelled += 1;
    if (status == "deadline_exceeded") stats.deadline_exceeded += 1;
    if (status == "stalled") stats.stalled += 1;
  }

  void interrupt(std::uint64_t id, const std::string& why, std::uint64_t now) {
    Run& run = runs.at(id);
    if (rank(why) > rank(run.cause)) run.cause = why;
    if (run.state == State::kQueued)
      end(run, run.cause, "", false, now);
    else
      run.cancel_requested = true;
  }

  bool cancel(ConnId conn, std::uint64_t id, std::uint64_t now) {
    if (runs.count(id) == 0) {
      line(conn,
           "ERROR no queued or running run with id " + std::to_string(id));
      return false;
    }
    line(conn, "CANCELLING id=" + std::to_string(id));
    interrupt(id, "cancelled", now);
    return true;
  }

  /// Returns the run an ATTACH reaches (live or recent), or nullptr.
  Lifecycle::Attach attach(ConnId conn, std::uint64_t id, std::uint64_t from,
                           const Run** done) {
    const auto live = runs.find(id);
    if (live == runs.end()) {
      for (const Run& r : recent)
        if (r.id == id) *done = &r;
      if (*done != nullptr) return Lifecycle::Attach::kDone;
      line(conn, "ERROR reason=unknown_run id=" + std::to_string(id));
      return Lifecycle::Attach::kUnknown;
    }
    Run& run = live->second;
    stats.attached += 1;
    line(conn, "ATTACHED id=" + std::to_string(id) + " state=" +
                   (run.state == State::kRunning ? "running" : "queued") +
                   " last_seq=" + std::to_string(run.seq));
    for (const auto& [seq, text] : run.ring)
      if (seq >= from) lines.emplace_back(conn, text);
    std::erase_if(run.subs, [&](const auto& s) { return s.first == conn; });
    run.subs.emplace_back(conn, from);
    return Lifecycle::Attach::kLive;
  }

  void disconnect(ConnId conn, std::uint64_t now) {
    std::vector<std::uint64_t> orphans;
    for (auto& [id, run] : runs) {
      const auto before = run.subs.size();
      std::erase_if(run.subs, [&](const auto& s) { return s.first == conn; });
      if (run.subs.size() < before && run.subs.empty() && !durable() &&
          !stopped)
        orphans.push_back(id);
    }
    for (const std::uint64_t id : orphans) interrupt(id, "cancelled", now);
  }

  std::size_t reset(const std::string& spec, bool all) {
    std::size_t cleared = 0;
    for (auto it = streaks.begin(); it != streaks.end();) {
      if (!all && it->first != spec) {
        ++it;
        continue;
      }
      records.push_back("streak 0 " + it->first);
      it = streaks.erase(it);
      ++cleared;
    }
    return cleared;
  }

  Lifecycle::Tick tick(std::uint64_t now, bool watch) {
    Lifecycle::Tick t;
    while (!deadlines.empty() && deadlines.begin()->first <= now) {
      const std::uint64_t id = deadlines.begin()->second;
      deadlines.erase(deadlines.begin());
      if (runs.count(id) > 0) interrupt(id, "deadline_exceeded", now);
    }
    if (!deadlines.empty()) t.wake_ns = deadlines.begin()->first;
    if (watch) {
      const std::uint64_t budget = opt.progress_timeout_ms * kMs;
      for (auto& [id, run] : runs)
        if (budget > 0 && run.state == State::kRunning &&
            rank(run.cause) < rank("stalled") && now - run.progress > budget)
          interrupt(id, "stalled", now);
    }
    if (draining && !drained) {
      const std::uint64_t budget_end = drain_begin + opt.drain_ms * kMs;
      if (now >= budget_end) {
        std::vector<std::uint64_t> ids;
        for (const auto& [id, run] : runs) ids.push_back(id);
        for (const std::uint64_t id : ids) interrupt(id, "cancelled", now);
      }
      if (runs.empty() || now >= budget_end + 1000 * kMs) {
        drained = true;
        t.drained = true;
      } else {
        const std::uint64_t grace_end = budget_end + 1000 * kMs;
        t.wake_ns = std::min(t.wake_ns, now >= budget_end ? grace_end
                                                          : budget_end);
      }
    }
    return t;
  }

  void stop() {
    stopped = true;
    for (auto& [id, run] : runs) {
      if (run.state != State::kRunning) continue;
      if (rank(run.cause) < rank("cancelled")) run.cause = "cancelled";
      run.cancel_requested = true;
    }
  }

  /// A new incarnation: with a journal the live runs come back queued (in
  /// admission order, their deadlines counted from now), the
  /// streaks survive and ids resume at the leased bound; without one the
  /// daemon starts from nothing.
  void restart(std::uint64_t now) {
    Model fresh(opt);
    if (durable()) {
      fresh.next_id = fresh.leased = leased;
      for (const auto& [spec, streak] : streaks)
        fresh.streaks[spec] = Streak{streak.count, now};
      for (const auto& [id, run] : runs) {
        Run r;
        r.id = id;
        r.spec = run.spec;
        r.deadline_ms = run.deadline_ms;
        r.recovered = true;
        if (r.deadline_ms > 0)
          fresh.deadlines.emplace(now + r.deadline_ms * kMs, id);
        fresh.add_queued(std::move(r));
        fresh.stats.recovered += 1;
      }
    }
    *this = std::move(fresh);
  }

  ServeOptions opt;
  std::map<std::uint64_t, Run> runs;  ///< queued + running
  std::deque<Run> recent;
  std::deque<std::uint64_t> queue;  ///< queued ids, oldest first
  std::map<std::string, Streak> streaks;
  std::multimap<std::uint64_t, std::uint64_t> deadlines;
  StatsReport stats;
  std::uint64_t next_id = 1;
  std::uint64_t leased = 1;  ///< ids below it are journalled as used
  bool draining = false;
  bool drained = false;
  bool stopped = false;
  std::uint64_t drain_begin = 0;
  // The current step's expected output.
  std::vector<std::string> records;
  std::vector<std::pair<ConnId, std::string>> lines;
};

/// Each connection's received stream, checked for the wire guarantees.
struct StreamChecker {
  struct Sub {
    bool done = false;
    std::uint64_t next = 1;  ///< the next CHECKPOINT seq owed
  };
  std::map<std::pair<ConnId, std::uint64_t>, Sub> subs;
  std::set<std::string> done_records;  ///< "done <id> <status>" so far
  std::vector<std::string> errors;

  void fail(ConnId conn, const std::string& what, const std::string& line) {
    errors.push_back("conn " + std::to_string(conn) + ": " + what + ": " +
                     line);
  }
  /// An ATTACH from=`from` that the class accepted (live or replayed).
  void attached(ConnId conn, std::uint64_t id, std::uint64_t from) {
    subs[{conn, id}] = Sub{false, from};
  }
  void feed(ConnId conn, const std::string& raw, bool needs_record) {
    const ServerLine l = parse_server_line(raw.substr(0, raw.find('\n')));
    const auto key = std::make_pair(conn, l.id);
    const auto it = subs.find(key);
    switch (l.kind) {
      case ServerLine::Kind::kAccepted:
        if (it != subs.end()) fail(conn, "ACCEPTED after another line", raw);
        subs[key] = Sub{false, 1};
        break;
      case ServerLine::Kind::kCheckpoint:
        if (it == subs.end() || it->second.done)
          fail(conn, "CHECKPOINT outside a subscription", raw);
        else if (l.seq != it->second.next++)
          fail(conn, "CHECKPOINT gap or duplicate", raw);
        break;
      case ServerLine::Kind::kResult:
        if (it == subs.end() || it->second.done)
          fail(conn, "RESULT outside a subscription", raw);
        break;
      case ServerLine::Kind::kDone:
        if (it == subs.end() || it->second.done)
          fail(conn, "DONE without ACCEPTED/ATTACHED or twice", raw);
        else
          it->second.done = true;
        if (needs_record &&
            done_records.count("done " + std::to_string(l.id) + " " +
                               l.status) == 0)
          fail(conn, "DONE before its done record", raw);
        break;
      case ServerLine::Kind::kCancelling:
        if (it != subs.end() && it->second.done)
          fail(conn, "CANCELLING after DONE", raw);
        break;
      default:
        break;
    }
  }
};

/// A REJECT's retry hint comes from the drain-rate estimate, which the
/// model does not restate; its reason must match.
std::string normalized(const std::string& line) {
  if (line.rfind("REJECT ", 0) != 0) return line;
  return "REJECT " + line.substr(line.find("reason="));
}

/// One schedule: the class under test, the model, the harness state that
/// stands in for the daemon (connections, executors, caches, journal).
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed) {
    opt_.queue_limit = 1 + pick(5);
    executors_ = 1 + pick(3);
    opt_.executors = executors_;
    opt_.quarantine_threshold = pick(4);
    opt_.quarantine_ttl_s = pick(3) == 0 ? 1 : 0;
    opt_.progress_timeout_ms = pick(2) == 0 ? 100 : 0;
    opt_.drain_ms = 50 + pick(200);
    opt_.journal_dir = pick(2) == 0 ? "journal" : "";
    model_ = std::make_unique<Model>(opt_);
    incarnate();
  }

  /// Runs `steps` random steps, then lets every run finish.  Returns the
  /// first disagreement, or "" when the class matched the model.
  std::string run(int steps) {
    for (int i = 0; i < steps && error_.empty(); ++i) random_step();
    for (int guard = 0; guard < 1000 && error_.empty(); ++guard) {
      if (jobs_.empty() && lc_->queued() == 0) break;
      if (jobs_.size() < executors_ && lc_->queued() > 0)
        pickup();
      else
        finish(jobs_.begin()->first, "ok");
    }
    if (!error_.empty()) return error_;
    // Every ACCEPTED (or attached) id reached exactly one DONE.
    for (const auto& [key, sub] : checker_.subs)
      if (!sub.done && conns_.count(key.first) > 0)
        return "id " + std::to_string(key.second) + " never got DONE on conn " +
               std::to_string(key.first);
    return checker_.errors.empty() ? "" : checker_.errors.front();
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_.next() % n; }
  bool chance(std::uint64_t percent) { return pick(100) < percent; }

  void incarnate() {
    registry_ = std::make_unique<obs::Registry>();
    lc_ = std::make_unique<Lifecycle>(opt_, *registry_);
    jobs_.clear();
    conns_.clear();
    for (int i = 0; i < 3; ++i) conns_.insert(next_conn_++);
    checker_.subs.clear();
  }

  ConnId any_conn() {
    auto it = conns_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(conns_.size())));
    return *it;
  }

  /// Compares one class step with the model's and feeds the lines to the
  /// connections that are still open.
  void compare(const char* what, Lifecycle::Outbox& out) {
    if (!error_.empty()) return;
    std::vector<std::pair<ConnId, std::string>> got;
    for (const auto& [conn, line] : out.lines)
      got.emplace_back(conn, normalized(line));
    const auto context = [&] {
      std::string s = std::string(what) + " at step " + std::to_string(step_) +
                      "\n class:";
      for (const auto& [c, l] : got) s += " [" + std::to_string(c) + "] " + l;
      s += "\n model:";
      for (const auto& [c, l] : model_->lines)
        s += " [" + std::to_string(c) + "] " + l;
      s += "\n class records:";
      for (const auto& r : out.records) s += " {" + r + "}";
      s += "\n model records:";
      for (const auto& r : model_->records) s += " {" + r + "}";
      return s;
    };
    if (got != model_->lines || out.records != model_->records) {
      error_ = "step output differs: " + context();
      return;
    }
    for (const std::string& r : out.records) {
      if (r.rfind("done ", 0) == 0) checker_.done_records.insert(r);
      if (durable()) journal_.push_back(r);
    }
    for (const auto& [conn, line] : out.lines)
      if (conns_.count(conn) > 0) checker_.feed(conn, line, true);
    model_->records.clear();
    model_->lines.clear();
    check_state(what);
  }

  void check_state(const char* what) {
    StatsReport r;
    lc_->stats(r);
    const StatsReport& m = model_->stats;
    const auto field = [&](const char* name, std::uint64_t a, std::uint64_t b) {
      if (a != b && error_.empty())
        error_ = std::string(what) + " at step " + std::to_string(step_) +
                 ": STATS " + name + "=" + std::to_string(a) + ", model " +
                 std::to_string(b);
    };
    field("active", r.active, m.active);
    field("queued", r.queued, m.queued);
    field("completed", r.completed, m.completed);
    field("cancelled", r.cancelled, m.cancelled);
    field("deadline_exceeded", r.deadline_exceeded, m.deadline_exceeded);
    field("stalled", r.stalled, m.stalled);
    field("crashed", r.crashed, m.crashed);
    field("rejected", r.rejected, m.rejected);
    field("quarantined", r.quarantined, m.quarantined);
    field("recovered", r.recovered, m.recovered);
    field("attached", r.attached, m.attached);
    // A running run's token fires exactly when the model says so.
    for (const auto& [id, job] : jobs_)
      if (job.cancel.cancelled() != model_->runs.at(id).cancel_requested &&
          error_.empty())
        error_ = std::string(what) + ": the cancel token of run " +
                 std::to_string(id) + " disagrees with the model";
  }

  bool durable() const { return !opt_.journal_dir.empty(); }

  void random_step() {
    ++step_;
    now_ += pick(100) < 5 ? 1500 * kMs : pick(30) * kMs;
    const std::uint64_t roll = pick(100);
    if (roll < 30) return submit();
    if (roll < 44)
      return lc_->queued() > 0 && jobs_.size() < executors_ ? pickup()
                                                            : tick(true);
    if (roll < 54) return checkpoint();
    if (roll < 68) return finish_random();
    if (roll < 78) return tick(chance(50));
    if (roll < 83) return cancel();
    if (roll < 88) return attach();
    if (roll < 91) return disconnect();
    if (roll < 95) return reset();
    if (roll < 96) return drain();
    if (roll < 97) return restart(/*stop_first=*/chance(50));
    // The other 3% of steps only let time pass.
  }

  void submit() {
    Lifecycle::Submission s;
    s.conn = any_conn();
    s.canonical = spec_name(static_cast<int>(pick(kSpecs)));
    s.deadline_ms = chance(30) ? 20 + pick(280) : 0;
    const bool inject = chance(5);
    Lifecycle::Outbox out;
    const std::uint64_t id = lc_->open(s, now_, [&] { return inject; }, out);
    const std::uint64_t want = model_->open(s, now_, inject);
    if (id != want)
      error_ = "open returned " + std::to_string(id) + ", model " +
               std::to_string(want);
    compare("open", out);
    if (id == 0 || !error_.empty()) return;
    if (cache_.count(s.canonical) > 0) {
      // The daemon's cache-hit path: the bytes go out from the reader.
      lc_->hit();
      model_->stats.completed += 1;
      for (const std::string& line :
           {msg_accepted(id) + "\n",
            msg_result_unit(id, true, payload_of(s.canonical)),
            msg_done(id, "ok") + "\n"})
        checker_.feed(s.conn, line, false);
      return check_state("hit");
    }
    Lifecycle::Outbox queued;
    const bool admitted = lc_->enqueue(s, id, now_, queued);
    if (admitted != model_->enqueue(s, id, now_))
      error_ = "enqueue verdict differs";
    compare("enqueue", queued);
  }

  void pickup() {
    Lifecycle::Job job;
    const bool got = lc_->pickup(now_, &job);
    const std::uint64_t want = model_->pickup(now_);
    if (!got || want == 0 || job.id != want ||
        job.canonical != model_->runs.at(want).spec ||
        job.recovered != model_->runs.at(want).recovered) {
      error_ = "pickup took " + std::to_string(job.id) + ", model " +
               std::to_string(want);
      return;
    }
    jobs_.emplace(job.id, job);
    check_state("pickup");
  }

  void checkpoint() {
    if (jobs_.empty()) return tick(false);
    auto it = jobs_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(jobs_.size())));
    Lifecycle::Outbox out;
    lc_->checkpoint(it->first, "L", 7, test_checkpoint(), now_, out);
    model_->checkpoint(it->first, now_);
    compare("checkpoint", out);
  }

  void finish_random() {
    if (jobs_.empty()) return tick(false);
    auto it = jobs_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(jobs_.size())));
    const std::uint64_t roll = pick(100);
    std::string kind = roll < 70 ? "ok" : roll < 80 ? "spec_error" : "crash";
    // A told run usually stops at its next chunk; it may also finish.
    if (it->second.cancel.cancelled() && chance(80)) kind = "cancelled";
    finish(it->first, kind);
  }

  void finish(std::uint64_t id, std::string kind) {
    const Lifecycle::Job job = jobs_.at(id);
    jobs_.erase(id);
    using Kind = Lifecycle::Outcome::Kind;
    Lifecycle::Outcome outcome;
    // A recovered run whose result is cached is served from the cache.
    outcome.cached =
        kind == "ok" && job.recovered && cache_.count(job.canonical) > 0;
    outcome.kind = kind == "ok"           ? Kind::kOk
                   : kind == "cancelled"  ? Kind::kCancelled
                   : kind == "spec_error" ? Kind::kSpecError
                                          : Kind::kCrash;
    outcome.text = kind == "ok"           ? payload_of(job.canonical)
                   : kind == "spec_error" ? "bad spec"
                   : kind == "crash"      ? "boom"
                                          : "";
    if (kind == "ok") cache_.insert(job.canonical);
    Lifecycle::Outbox out;
    const bool quarantined = lc_->finish(id, outcome, now_, out);
    if (quarantined != model_->finish(id, kind, outcome.cached, now_))
      error_ = "finish's quarantine verdict differs";
    compare("finish", out);
  }

  void tick(bool watch) {
    Lifecycle::Outbox out;
    const Lifecycle::Tick got = lc_->tick(now_, watch, out);
    const Lifecycle::Tick want = model_->tick(now_, watch);
    if (got.wake_ns != want.wake_ns || got.drained != want.drained)
      error_ = "tick differs: wake " + std::to_string(got.wake_ns) + " vs " +
               std::to_string(want.wake_ns);
    compare("tick", out);
    // A completed drain is the daemon's cue to shut down.
    if (got.drained && error_.empty()) restart(/*stop_first=*/true);
  }

  std::uint64_t any_id() {
    return model_->next_id > 1 && chance(90) ? 1 + pick(model_->next_id - 1)
                                             : model_->next_id + 5;
  }

  void cancel() {
    const ConnId conn = any_conn();
    const std::uint64_t id = any_id();
    Lifecycle::Outbox out;
    if (lc_->cancel(conn, id, now_, out) != model_->cancel(conn, id, now_))
      error_ = "cancel verdict differs";
    compare("cancel", out);
  }

  void attach() {
    const ConnId conn = any_conn();
    const std::uint64_t id = any_id();
    const std::uint64_t from = 1 + pick(4);
    Lifecycle::Outbox out;
    Lifecycle::Replay done;
    const Model::Run* want_done = nullptr;
    const Lifecycle::Attach got = lc_->attach(conn, id, from, out, &done);
    const Lifecycle::Attach want = model_->attach(conn, id, from, &want_done);
    if (got != want) {
      error_ = "attach kind differs for id " + std::to_string(id);
      return;
    }
    if (got == Lifecycle::Attach::kLive) checker_.attached(conn, id, from);
    compare("attach", out);
    if (got != Lifecycle::Attach::kDone || !error_.empty()) return;
    std::vector<std::string> want_lines;
    for (const auto& [seq, text] : want_done->ring)
      if (seq >= from) want_lines.push_back(text);
    if (status_name(done.status) != want_done->status ||
        done.canonical != want_done->spec || done.last_seq != want_done->seq ||
        done.lines != want_lines) {
      error_ = "attach replay of done run " + std::to_string(id) + " differs";
      return;
    }
    // The daemon's replay of a finished run.
    lc_->attached();
    model_->stats.attached += 1;
    checker_.attached(conn, id, from);
    checker_.feed(conn, msg_attached(id, "done", done.last_seq) + "\n", false);
    for (const std::string& line : done.lines) checker_.feed(conn, line, false);
    if (done.status == RunStatus::kOk)
      checker_.feed(
          conn, msg_result_unit(id, true, payload_of(done.canonical)), false);
    checker_.feed(conn, msg_done(id, status_name(done.status)) + "\n", true);
    check_state("attach done");
  }

  void disconnect() {
    const ConnId conn = any_conn();
    conns_.erase(conn);
    conns_.insert(next_conn_++);
    Lifecycle::Outbox out;
    lc_->disconnect(conn, now_, out);
    model_->disconnect(conn, now_);
    compare("disconnect", out);
  }

  void reset() {
    const bool all = chance(30);
    const std::string spec = spec_name(static_cast<int>(pick(kSpecs)));
    Lifecycle::Outbox out;
    if (lc_->reset(spec, all, out) != model_->reset(spec, all))
      error_ = "RESET count differs";
    compare("reset", out);
  }

  void drain() {
    lc_->begin_drain(now_);
    if (!model_->draining) {
      model_->draining = true;
      model_->drain_begin = now_;
    }
  }

  /// stop() first (running runs end cancelled once their executors
  /// return; queued runs stay), or a crash; then a new incarnation
  /// restores from the journal.
  void restart(bool stop_first) {
    if (stop_first) {
      lc_->stop();
      model_->stop();
      check_state("stop");
      // The readers leave; after stop() that orphans nothing.
      for (const ConnId conn : std::set<ConnId>(conns_)) {
        Lifecycle::Outbox out;
        lc_->disconnect(conn, now_, out);
        model_->disconnect(conn, now_);
        compare("disconnect after stop", out);
      }
      while (!jobs_.empty() && error_.empty())
        finish(jobs_.begin()->first, chance(80) ? "cancelled" : "ok");
    }
    if (!error_.empty()) return;
    // The records the class emitted, replayed without a file.
    const Journal::Recovery recovery =
        durable() ? Journal::replay(journal_) : Journal::Recovery{};
    if (durable()) {
      std::vector<Journal::RecoveredRun> want;
      for (const auto& [id, run] : model_->runs)
        want.push_back({id, run.spec, run.deadline_ms});
      std::vector<std::pair<std::string, std::size_t>> streaks;
      for (const auto& [spec, streak] : model_->streaks)
        streaks.emplace_back(spec, streak.count);
      const auto same = [](const Journal::RecoveredRun& a,
                           const Journal::RecoveredRun& b) {
        return a.id == b.id && a.spec == b.spec &&
               a.deadline_ms == b.deadline_ms;
      };
      if (!std::equal(recovery.incomplete.begin(), recovery.incomplete.end(),
                      want.begin(), want.end(), same))
        error_ = "restart recovered other runs than the model's";
      else if (recovery.quarantine != streaks)
        error_ = "restart recovered other streaks than the model's";
      else if (recovery.next_id != model_->leased)
        error_ =
            "restart recovered next_id " + std::to_string(recovery.next_id);
      journal_ = Journal::compact(recovery);
    }
    if (!error_.empty()) return;
    incarnate();
    model_->restart(now_);
    Lifecycle::Outbox out;
    lc_->restore(
        recovery, now_, [](const Journal::RecoveredRun&) { return true; },
        out);
    compare("restore", out);
  }

  Xoshiro256 rng_;
  ServeOptions opt_;
  std::size_t executors_ = 1;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<Lifecycle> lc_;
  std::unique_ptr<Model> model_;
  std::map<std::uint64_t, Lifecycle::Job> jobs_;  ///< the running runs
  std::set<ConnId> conns_;
  ConnId next_conn_ = 1;
  std::set<std::string> cache_;  ///< specs with a stored result
  std::vector<std::string> journal_;
  StreamChecker checker_;
  std::uint64_t now_ = 1'000'000'000;
  int step_ = 0;
  std::string error_;
};

TEST(LifecycleModel, RandomSchedulesMatchTheModel) {
  Xoshiro256 seeds(kSeed);
  for (int i = 0; i < kSchedules; ++i) {
    const std::uint64_t seed = seeds.next();
    Schedule schedule(seed);
    const std::string error =
        schedule.run(12 + static_cast<int>(seed % 32));
    ASSERT_TRUE(error.empty()) << "schedule " << i << " (seed " << seed
                               << "): " << error;
  }
}

/// One incarnation of the class with a journal: restored from `journal`
/// at `now`; every record it emits is appended to `journal`, which is all
/// that survives a crash.  `parses` says whether a recovered spec parses.
struct Incarnation {
  Incarnation(std::vector<std::string>& journal, std::uint64_t now,
              const Lifecycle::SpecCheck& parses =
                  [](const Journal::RecoveredRun&) { return true; })
      : journal(journal), lc(opt, registry) {
    lc.restore(Journal::replay(journal), now, parses, out);
    keep();
  }
  void keep() {
    journal.insert(journal.end(), out.records.begin(), out.records.end());
    out = {};
  }
  std::uint64_t open(const Lifecycle::Submission& s, std::uint64_t now) {
    const std::uint64_t id = lc.open(s, now, [] { return false; }, out);
    keep();
    return id;
  }

  std::vector<std::string>& journal;
  const ServeOptions opt{.journal_dir = "journal"};
  obs::Registry registry;
  Lifecycle lc;
  Lifecycle::Outbox out;
};

TEST(LifecycleRestart, ACacheHitsIdIsNotReusedAfterACrash) {
  std::vector<std::string> journal;
  Lifecycle::Submission s;
  s.conn = 1;
  s.canonical = "spec=1";
  std::uint64_t hit_id = 0;
  {
    Incarnation before(journal, 0);
    hit_id = before.open(s, 0);
    before.lc.hit();  // served from the caches: never queued
  }
  Incarnation after(journal, 1000 * kMs);
  s.canonical = "spec=2";
  const std::uint64_t id = after.open(s, 1000 * kMs);
  ASSERT_NE(hit_id, 0u);
  EXPECT_GT(id, hit_id) << "a new run took the cache hit's id";
}

TEST(LifecycleRestart, ARecoveredRunKeepsItsDeadline) {
  std::vector<std::string> journal;
  Lifecycle::Submission s;
  s.conn = 1;
  s.canonical = "spec=1";
  s.deadline_ms = 100;
  {
    Incarnation before(journal, 0);
    const std::uint64_t id = before.open(s, 0);
    ASSERT_TRUE(before.lc.enqueue(s, id, 0, before.out));
    before.keep();
  }
  // Restarted long after the original deadline: it counts from now.
  const std::uint64_t now = 5000 * kMs;
  Incarnation after(journal, now);
  ASSERT_EQ(after.lc.queued(), 1u);
  EXPECT_EQ(after.lc.tick(now, false, after.out).wake_ns, now + 100 * kMs);
  EXPECT_TRUE(after.out.records.empty());
  after.lc.tick(now + 100 * kMs, false, after.out);
  EXPECT_EQ(after.lc.queued(), 0u);
  EXPECT_EQ(after.out.records,
            std::vector<std::string>{"done 1 deadline_exceeded"});
}

TEST(LifecycleRestart, AnUnparseableRecoveredRunEndsErrorAtOnce) {
  std::vector<std::string> journal;
  Lifecycle::Submission s;
  s.conn = 1;
  {
    Incarnation before(journal, 0);
    for (const char* spec : {"spec=1", "spec=2", "spec=3"}) {
      s.canonical = spec;
      const std::uint64_t id = before.open(s, 0);
      ASSERT_TRUE(before.lc.enqueue(s, id, 0, before.out));
      before.keep();
    }
  }
  // Another build journalled spec=2, which this one cannot parse: it ends
  // `error` at restore and never queues; the others keep their order.
  Incarnation after(journal, 1000 * kMs, [](const Journal::RecoveredRun& r) {
    return r.spec != "spec=2";
  });
  EXPECT_EQ(journal.back(), "done 2 error");
  ASSERT_EQ(after.lc.queued(), 2u);
  Lifecycle::Job job;
  ASSERT_TRUE(after.lc.pickup(1000 * kMs, &job));
  EXPECT_EQ(job.id, 1u);
  ASSERT_TRUE(after.lc.pickup(1000 * kMs, &job));
  EXPECT_EQ(job.id, 3u);
}

// ------------------------------------------------------------ socket level

std::string tiny_spec(int seed) {
  return "workload=zipf:skew=1.1;algorithms=bma;b=2;racks=8;requests=4000;"
         "trials=1;checkpoints=2;seed=" +
         std::to_string(seed);
}

std::string direct_csv(const std::string& spec_text) {
  const scenario::ScenarioResult result =
      scenario::run_scenario(scenario::ScenarioSpec::parse(spec_text));
  std::ostringstream csv;
  sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
  return csv.str();
}

ServeOptions socket_options(const std::string& tag) {
  ServeOptions options;
  options.socket_path = "/tmp/rdcn_lifecycle_test_" +
                        std::to_string(::getpid()) + "_" + tag + ".sock";
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

/// The entries of a /proc/self directory (thread ids, fd numbers).
std::set<std::string> entries(const char* dir) {
  std::set<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    out.insert(entry.path().filename().string());
  return out;
}

struct SocketTest : ::testing::Test {
  void SetUp() override {
    fault::disarm_all();
    ::unsetenv("RDCN_FAULTS");
  }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(SocketTest, CancelledExpiredOrOrphanedQueuedRunsEndAtOnce) {
  ServeOptions options = socket_options("queued_end");
  options.queue_limit = 1;
  Daemon daemon(options);
  daemon.start();
  Client client;
  client.connect(options.socket_path);
  // A bounded wait: a DONE that only comes once the executor frees would
  // otherwise hang here.
  client.set_read_timeout_seconds(5);

  // A wedged run holds the one executor, so every later run stays queued.
  fault::arm("serve.executor.stall", {.times = 1});
  const Client::Submission wedged = client.submit(tiny_spec(1));
  ASSERT_TRUE(wedged.accepted) << wedged.error;
  ASSERT_TRUE(poll_until([&] { return daemon.stats_report().active == 1; }));

  // A deadline on a queued run: DONE at once, and its queue slot is free
  // for the next run.
  const Client::Submission late = client.submit(tiny_spec(2), 50);
  ASSERT_TRUE(late.accepted) << late.error;
  EXPECT_EQ(client.collect(late.id).status, "deadline_exceeded");
  StatsReport stats = daemon.stats_report();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);

  // CANCEL of a queued run: CANCELLING, then DONE, at once.
  const Client::Submission queued = client.submit(tiny_spec(3));
  ASSERT_TRUE(queued.accepted) << queued.error;
  EXPECT_TRUE(client.cancel(queued.id));
  EXPECT_EQ(client.collect(queued.id).status, "cancelled");

  // Without a journal, a queued run whose submitter leaves is cancelled.
  {
    Client other;
    other.connect(options.socket_path);
    ASSERT_TRUE(other.submit(tiny_spec(4)).accepted);
  }
  EXPECT_TRUE(poll_until([&] {
    stats = daemon.stats_report();
    return stats.queued == 0 && stats.cancelled == 2;
  })) << "queued=" << stats.queued << " cancelled=" << stats.cancelled;

  // Every slot came back: the next run is admitted, and runs once the
  // wedged one is cancelled.
  const Client::Submission next = client.submit(tiny_spec(5));
  ASSERT_TRUE(next.accepted) << next.error << " reason=" << next.reason;
  EXPECT_TRUE(client.cancel(wedged.id));
  EXPECT_EQ(client.collect(wedged.id).status, "cancelled");
  EXPECT_EQ(client.collect(next.id).status, "ok");
  client.disconnect();
  daemon.stop();
}

TEST_F(SocketTest, OkPayloadsByteMatchDirectRuns) {
  Daemon daemon(socket_options("payloads"));
  daemon.start();
  Client client;
  client.connect(daemon.options().socket_path);
  for (const std::string& spec : {
           // One online task: the workload replays as a stream.
           std::string("workload=facebook_db;algorithms=bma;b=4;racks=16;"
                       "requests=20000;trials=1;checkpoints=4;seed=5"),
           // Several tasks share one trace as it is generated.
           std::string("workload=microsoft;algorithms=r_bma,bma,greedy;"
                       "b=2,4;racks=16;requests=20000;trials=2;"
                       "checkpoints=4;seed=5"),
           // An offline comparator beside an online task.
           std::string("workload=zipf:skew=1.2;algorithms=so_bma,r_bma;b=3;"
                       "racks=12;requests=20000;trials=1;checkpoints=2;"
                       "seed=9"),
       }) {
    const Client::Submission sub = client.submit(spec);
    ASSERT_TRUE(sub.accepted) << sub.error;
    const Client::RunOutput out = client.collect(sub.id);
    EXPECT_EQ(out.status, "ok") << out.error;
    EXPECT_FALSE(out.cached);
    EXPECT_EQ(out.csv, direct_csv(spec)) << spec;
  }
  client.disconnect();
  daemon.stop();
}

TEST_F(SocketTest, ExecutorCrashEndsErrorInternalThenDoneError) {
  Daemon daemon(socket_options("crash"));
  daemon.start();
  Client client;
  client.connect(daemon.options().socket_path);
  fault::arm("serve.executor.crash", {.times = 1});
  const Client::Submission sub = client.submit(tiny_spec(6));
  ASSERT_TRUE(sub.accepted) << sub.error;
  const Client::RunOutput out = client.collect(sub.id);
  EXPECT_EQ(out.status, "error");
  EXPECT_EQ(out.error, "internal=injected executor crash");
  EXPECT_EQ(daemon.stats_report().crashed, 1u);
  client.disconnect();
  daemon.stop();
}

TEST_F(SocketTest, StopLeavesNoThreadOrClientFd) {
  // Warm the process-wide run pool first: its workers outlive any daemon.
  direct_csv(tiny_spec(7));
  const std::set<std::string> threads = entries("/proc/self/task");
  const std::set<std::string> fds = entries("/proc/self/fd");
  {
    Daemon daemon(socket_options("stop"));
    daemon.start();
    Client idle, runner;
    idle.connect(daemon.options().socket_path);
    idle.ping();
    runner.connect(daemon.options().socket_path);
    const Client::Submission sub = runner.submit(tiny_spec(7));
    ASSERT_TRUE(sub.accepted) << sub.error;
    EXPECT_EQ(runner.collect(sub.id).status, "ok");
    runner.disconnect();
    // `idle` is still connected when the daemon stops.
    daemon.stop();
    idle.disconnect();
  }
  std::size_t new_threads = 0;
  for (const std::string& tid : entries("/proc/self/task"))
    new_threads += threads.count(tid) == 0;
  EXPECT_EQ(new_threads, 0u);
  EXPECT_EQ(entries("/proc/self/fd"), fds);
}

}  // namespace
