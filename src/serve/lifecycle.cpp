#include "serve/lifecycle.hpp"

#include <algorithm>

namespace rdcn::serve {

namespace {

/// CHECKPOINT lines a run keeps for ATTACH replay (an attacher that
/// missed more sees a gap; the RESULT payload is never gapped), and the
/// terminal runs kept for late ATTACH.
constexpr std::size_t kCheckpointRing = 128;
constexpr std::size_t kRecentRuns = 256;
/// A drain's stragglers get this long past the budget: a wedged run (or
/// executors=0) must not hold a shutdown hostage.
constexpr std::uint64_t kStragglerGraceNs = 1'000'000'000;
constexpr std::uint64_t kMs = 1'000'000;

constexpr std::size_t index(RunStatus status) {
  return static_cast<std::size_t>(status);
}

void post(Lifecycle::Outbox& out, ConnId conn, std::string line) {
  line += '\n';
  out.lines.emplace_back(conn, std::move(line));
}

}  // namespace

std::uint32_t DrainEstimator::retry_ms(std::size_t queued,
                                       std::size_t executors,
                                       std::uint32_t fallback_ms) const {
  if (ewma_ns_ == 0) return fallback_ms;
  const double slots = executors == 0 ? 1.0 : static_cast<double>(executors);
  const double ms = static_cast<double>(ewma_ns_) / 1e6 *
                    (static_cast<double>(queued) + 1.0) / slots;
  return static_cast<std::uint32_t>(std::min(60'000.0, std::max(1.0, ms)));
}

const char* status_name(RunStatus status) {
  static constexpr const char* kNames[kRunStatuses] = {
      "ok", "cancelled", "deadline_exceeded", "stalled", "error"};
  return kNames[index(status)];
}

Lifecycle::Metrics::Metrics(obs::Registry& r)
    : crashes(r.counter("rdcn_serve_crashes_total",
                        "Executor crashes (non-SpecError escapes)")),
      rejected(r.counter("rdcn_serve_rejected_total",
                         "Submissions refused with REJECT backpressure")),
      quarantined(r.counter("rdcn_serve_quarantined_total",
                            "Submissions fast-failed as quarantined")),
      recovered(r.counter("rdcn_runs_recovered_total",
                          "Journalled runs re-enqueued after a restart")),
      attach_total(r.counter("rdcn_attach_total",
                             "Successful ATTACH subscriptions")),
      queue_depth(r.gauge("rdcn_serve_queue_depth",
                          "Runs waiting for an executor")),
      active_runs(r.gauge("rdcn_serve_active_runs",
                          "Runs currently executing")),
      queue_wait(r.latency_histogram("rdcn_serve_queue_wait_seconds",
                                     "Admission-to-pickup queue latency")),
      drain_seconds(r.latency_histogram("rdcn_serve_drain_seconds",
                                        "Graceful-drain duration")) {
  for (std::size_t s = 0; s < kRunStatuses; ++s) {
    const obs::Labels status{{"status", status_name(RunStatus(s))}};
    runs[s] = &r.counter("rdcn_serve_runs_total", "Runs by terminal status",
                         status);
    run_seconds[s] = &r.latency_histogram(
        "rdcn_serve_run_seconds", "Executor run latency by terminal status",
        status);
  }
}

Lifecycle::Lifecycle(const ServeOptions& options, obs::Registry& registry)
    : options_(options), m_(registry) {}

void Lifecycle::queue(Run run) {
  queue_.push_back(run.id);
  m_.queue_depth.add(1);
  live_.emplace(run.id, std::move(run));
}

void Lifecycle::reject(ConnId conn, Outbox& out) {
  m_.rejected.inc();
  post(out, conn,
       msg_reject(drain_est_.retry_ms(
           queue_.size(), std::max<std::size_t>(1, options_.executors),
           options_.retry_hint_ms)));
}

void Lifecycle::restore(const Journal::Recovery& recovery,
                        std::uint64_t now_ns, const SpecCheck& parses,
                        Outbox& out) {
  next_id_ = leased_ = recovery.next_id;
  for (const auto& [spec, count] : recovery.quarantine)
    streaks_[spec] = Streak{count, now_ns};
  for (const Journal::RecoveredRun& r : recovery.incomplete) {
    if (!parses(r)) {
      out.records.push_back(Journal::done_record(r.id, "error"));
      out.terminal = true;
      continue;
    }
    // Recovered runs queue in admission order, ahead of any new one.
    queue(Run{.id = r.id, .canonical = r.spec, .recovered = true,
              .admitted_ns = now_ns});
    if (r.deadline_ms > 0)
      deadlines_.emplace(now_ns + r.deadline_ms * kMs, r.id);
    m_.recovered.inc();
  }
}

std::uint64_t Lifecycle::open(const Submission& s, std::uint64_t now_ns,
                              const std::function<bool()>& injected_reject,
                              Outbox& out) {
  if (drain_ != Drain::kNone) {  // new work belongs to the next instance
    post(out, s.conn, msg_error("reason=draining daemon is shutting down"));
    return 0;
  }
  const auto it = streaks_.find(s.canonical);
  if (options_.quarantine_threshold > 0 && it != streaks_.end()) {
    // A streak untouched for the TTL no longer predicts anything.
    if (options_.quarantine_ttl_s > 0 &&
        now_ns - it->second.touched_ns >
            options_.quarantine_ttl_s * 1'000'000'000ull) {
      out.records.push_back(Journal::streak_record(it->first, 0));
      streaks_.erase(it);
    } else if (it->second.count >= options_.quarantine_threshold) {
      m_.quarantined.inc();
      post(out, s.conn,
           msg_error("reason=quarantined consecutive_failures=" +
                     std::to_string(it->second.count) +
                     " spec is quarantined after repeated executor crashes"));
      return 0;
    }
  }
  if (injected_reject()) {
    reject(s.conn, out);
    return 0;
  }
  if (next_id_ == leased_) {
    leased_ += kIdLease;
    out.records.push_back(Journal::nextid_record(leased_));
  }
  return next_id_++;
}

bool Lifecycle::enqueue(const Submission& s, std::uint64_t id,
                        std::uint64_t now_ns, Outbox& out) {
  if (queue_.size() >= options_.queue_limit) {
    reject(s.conn, out);
    return false;
  }
  out.records.push_back(Journal::admit_record(id, s.canonical, s.deadline_ms));
  post(out, s.conn, msg_accepted(id));
  queue(Run{.id = id, .canonical = s.canonical, .admitted_ns = now_ns,
            .subscribers = {{s.conn, 1}}});
  // The deadline counts from admission: queue wait counts against it.
  if (s.deadline_ms > 0) deadlines_.emplace(now_ns + s.deadline_ms * kMs, id);
  return true;
}

bool Lifecycle::pickup(std::uint64_t now_ns, Job* job) {
  if (queue_.empty()) return false;
  Run& run = live_.at(queue_.front());
  queue_.pop_front();
  m_.queue_depth.add(-1);
  m_.active_runs.add(1);
  run.state = State::kRunning;
  run.started_ns = run.progress_ns = now_ns;
  m_.queue_wait.observe_ns(now_ns - run.admitted_ns);
  *job = Job{run.id, run.canonical, run.recovered, run.cancel};
  return true;
}

void Lifecycle::checkpoint(std::uint64_t id, const std::string& label,
                           std::uint64_t seed,
                           const sim::Checkpoint& checkpoint,
                           std::uint64_t now_ns, Outbox& out) {
  Run& run = live_.at(id);
  run.progress_ns = now_ns;
  const std::uint64_t seq = run.next_seq++;
  std::string line = msg_checkpoint(id, seq, label, seed, checkpoint) + "\n";
  for (const Subscriber& sub : run.subscribers)
    if (seq >= sub.from) out.lines.emplace_back(sub.conn, line);
  run.ring.emplace_back(seq, std::move(line));
  if (run.ring.size() > kCheckpointRing) run.ring.pop_front();
}

bool Lifecycle::finish(std::uint64_t id, Outcome outcome,
                       std::uint64_t now_ns, Outbox& out) {
  Run& run = live_.at(id);
  using Kind = Outcome::Kind;
  return end(run,
             outcome.kind == Kind::kOk ? RunStatus::kOk
             : outcome.kind == Kind::kCancelled
                 ? std::max(run.cause, RunStatus::kCancelled)
                 : RunStatus::kError,
             &outcome, now_ns, out);
}

bool Lifecycle::end(Run& run, RunStatus status, const Outcome* outcome,
                    std::uint64_t now_ns, Outbox& out) {
  using Kind = Outcome::Kind;
  const Kind kind = outcome != nullptr ? outcome->kind : Kind::kCancelled;
  const bool crashed = kind == Kind::kCrash;
  m_.runs[index(status)]->inc();
  if (crashed) m_.crashes.inc();
  // A crash or a stall (a spec that wedges executors is as dangerous as
  // one that crashes them) extends the spec's streak; a success clears it.
  bool quarantined = false;
  if (crashed || status == RunStatus::kStalled) {
    Streak& streak = streaks_[run.canonical];
    streak.count += 1;
    streak.touched_ns = now_ns;
    quarantined = options_.quarantine_threshold > 0 &&
                  streak.count == options_.quarantine_threshold;
    out.records.push_back(Journal::streak_record(run.canonical, streak.count));
  } else if (status == RunStatus::kOk && streaks_.erase(run.canonical) > 0) {
    out.records.push_back(Journal::streak_record(run.canonical, 0));
  }
  out.records.push_back(Journal::done_record(run.id, status_name(status)));
  out.terminal = true;
  if (run.state == State::kRunning) {
    m_.active_runs.add(-1);
    m_.run_seconds[index(status)]->observe_ns(now_ns - run.started_ns);
    // Only full executions say how long a queue slot takes to free.
    if (status == RunStatus::kOk || status == RunStatus::kError)
      drain_est_.observe_run_ns(now_ns - run.started_ns);
  } else {
    queue_.erase(std::find(queue_.begin(), queue_.end(), run.id));
    m_.queue_depth.add(-1);
  }
  const bool failed = crashed || kind == Kind::kSpecError;
  const std::string error =
      failed ? msg_error((crashed ? "internal=" : "") + outcome->text) + "\n"
             : "";
  for (const Subscriber& sub : run.subscribers) {
    if (failed) out.lines.emplace_back(sub.conn, error);
    if (status == RunStatus::kOk)
      out.lines.emplace_back(
          sub.conn, msg_result_unit(run.id, outcome->cached, outcome->text));
    post(out, sub.conn, msg_done(run.id, status_name(status)));
  }
  // A finished run holds no connections and no token.
  run.subscribers.clear();
  run.cancel = CancelToken();
  run.state = State::kDone;
  run.status = status;
  recent_.push_back(std::move(run));
  live_.erase(recent_.back().id);
  if (recent_.size() > kRecentRuns) recent_.pop_front();
  return quarantined;
}

void Lifecycle::interrupt(Run& run, RunStatus why, std::uint64_t now_ns,
                          Outbox& out) {
  run.cause = std::max(run.cause, why);
  if (run.state == State::kQueued)
    end(run, run.cause, nullptr, now_ns, out);
  else
    run.cancel.request_cancel();
}

bool Lifecycle::cancel(ConnId conn, std::uint64_t id, std::uint64_t now_ns,
                       Outbox& out) {
  Run* run = live(id);
  if (run == nullptr) {
    post(out, conn,
         msg_error("no queued or running run with id " + std::to_string(id)));
    return false;
  }
  // The ack precedes the cancel, so it precedes the DONE it causes.
  post(out, conn, msg_cancelling(id));
  interrupt(*run, RunStatus::kCancelled, now_ns, out);
  return true;
}

Lifecycle::Attach Lifecycle::attach(ConnId conn, std::uint64_t id,
                                    std::uint64_t from, Outbox& out,
                                    Replay* done) {
  Run* run = live(id);
  for (Run& r : recent_)
    if (run == nullptr && r.id == id) run = &r;
  if (run == nullptr) {
    post(out, conn, msg_error("reason=unknown_run id=" + std::to_string(id)));
    return Attach::kUnknown;
  }
  std::vector<std::string> replay;
  for (const auto& [seq, line] : run->ring)
    if (seq >= from) replay.push_back(line);
  if (run->state == State::kDone) {
    *done = Replay{run->status, run->canonical, run->next_seq - 1,
                   std::move(replay)};
    return Attach::kDone;
  }
  // ATTACHED, the replay and the subscription in one step: nothing is
  // missed or doubled.
  m_.attach_total.inc();
  post(out, conn,
       msg_attached(id, run->state == State::kRunning ? "running" : "queued",
                    run->next_seq - 1));
  for (std::string& line : replay) out.lines.emplace_back(conn, line);
  // One subscription per connection: a second ATTACH moves its `from`.
  std::erase_if(run->subscribers,
                [&](const Subscriber& s) { return s.conn == conn; });
  run->subscribers.push_back({conn, from});
  return Attach::kLive;
}

void Lifecycle::disconnect(ConnId conn, std::uint64_t now_ns, Outbox& out) {
  for (auto it = live_.begin(); it != live_.end();) {
    Run& run = (it++)->second;  // interrupt() may erase it
    const bool left = std::erase_if(run.subscribers, [&](const Subscriber& s) {
                        return s.conn == conn;
                      }) > 0;
    // Without a journal nobody can collect an orphan's output.
    if (left && run.subscribers.empty() && options_.journal_dir.empty() &&
        !stopped_)
      interrupt(run, RunStatus::kCancelled, now_ns, out);
  }
}

std::size_t Lifecycle::reset(const std::string& spec, bool all,
                             Outbox& out) {
  return std::erase_if(streaks_, [&](const auto& streak) {
    const bool cleared = all || streak.first == spec;
    if (cleared) out.records.push_back(Journal::streak_record(streak.first, 0));
    return cleared;
  });
}

Lifecycle::Tick Lifecycle::tick(std::uint64_t now_ns, bool watch,
                                Outbox& out) {
  Tick t;
  while (!deadlines_.empty() && deadlines_.begin()->first <= now_ns) {
    // The deadline of a finished run expires harmlessly.
    if (Run* run = live(deadlines_.begin()->second))
      interrupt(*run, RunStatus::kDeadlineExceeded, now_ns, out);
    deadlines_.erase(deadlines_.begin());
  }
  if (!deadlines_.empty()) t.wake_ns = deadlines_.begin()->first;
  if (watch) {
    const std::uint64_t budget = options_.progress_timeout_ms * kMs;
    for (auto& [id, run] : live_)
      if (budget > 0 && run.state == State::kRunning &&
          run.cause < RunStatus::kStalled && now_ns - run.progress_ns > budget)
        interrupt(run, RunStatus::kStalled, now_ns, out);
  }
  if (drain_ == Drain::kDraining) {
    const std::uint64_t budget_end = drain_begin_ns_ + options_.drain_ms * kMs;
    // interrupt() may end (erase) the run it is given: step past it first.
    for (auto it = live_.begin(); now_ns >= budget_end && it != live_.end();)
      interrupt((it++)->second, RunStatus::kCancelled, now_ns, out);
    if (live_.empty() || now_ns >= budget_end + kStragglerGraceNs) {
      drain_ = Drain::kDrained;
      m_.drain_seconds.observe_ns(now_ns - drain_begin_ns_);
      t.drained = true;
    } else {
      t.wake_ns = std::min(t.wake_ns, now_ns >= budget_end
                                          ? budget_end + kStragglerGraceNs
                                          : budget_end);
    }
  }
  return t;
}

void Lifecycle::stop() {
  stopped_ = true;
  Outbox none;  // a running run only hears its token
  for (auto& [id, run] : live_)
    if (run.state == State::kRunning)
      interrupt(run, RunStatus::kCancelled, 0, none);
}

void Lifecycle::stats(StatsReport& r) const {
  r.active = static_cast<std::size_t>(m_.active_runs.value());
  r.queued = static_cast<std::size_t>(m_.queue_depth.value());
  r.completed = m_.runs[index(RunStatus::kOk)]->value();
  r.cancelled = m_.runs[index(RunStatus::kCancelled)]->value();
  r.deadline_exceeded = m_.runs[index(RunStatus::kDeadlineExceeded)]->value();
  r.stalled = m_.runs[index(RunStatus::kStalled)]->value();
  r.crashed = m_.crashes.value();
  r.rejected = m_.rejected.value();
  r.quarantined = m_.quarantined.value();
  r.recovered = m_.recovered.value();
  r.attached = m_.attach_total.value();
}

}  // namespace rdcn::serve
