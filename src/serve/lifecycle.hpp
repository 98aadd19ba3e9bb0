// rdcn: the serve daemon's run lifecycle, as one single-threaded class.
//
// Every rule that decides what happens to a run lives here; the daemon
// (serve/daemon.hpp) keeps the sockets, threads, clock and results
// cache, and calls this class under its one mutex.  The class opens no
// socket, starts no thread and reads no clock: time is an argument
// (monotonic nanoseconds).  Each call reports what it decided in an
// Outbox — journal records, then wire lines — which the daemon appends
// and queues in that order before it releases the mutex.
//
// Admission refuses, in this order: a draining daemon, a quarantined
// spec, an injected REJECT; then (a cache hit skips the rest, takes an id
// and counts as ok) a full queue: REJECT reason=queue_full, with a retry
// hint from the measured drain rate.  Admitted runs wait in one FIFO
// queue of at most queue_limit runs.
//
// States: queued → running → exactly one terminal status (RunStatus).
//   * A run is queued at admission (ACCEPTED) and running once an
//     executor picks it up.
//   * A cancel — a client CANCEL, a deadline, the stall watchdog, an
//     orphaning disconnect, or a drain budget's expiry — ends a queued
//     run at once: DONE, its `done` record, and the release of its queue
//     slot.  A running run is told through its CancelToken and ends when
//     its executor returns.
//   * Cancellation causes rank stalled > deadline_exceeded > cancelled:
//     the highest cause a run collected is its status.  A run that
//     finishes despite a late cancel is ok.
//
// Quarantine streaks: an executor crash or a stall extends the canonical
// spec's streak, a success clears it.  At quarantine_threshold the spec
// is refused at admission (ERROR reason=quarantined).  A streak untouched
// for quarantine_ttl_s ages out at the next admission of its spec, and
// RESET spec=/all=1 clears streaks; both journal a streak-0 record.
//
// Subscribers: the submitter, then each ATTACH (one subscription per
// connection).  A run whose last subscriber disconnected is cancelled
// unless a journal is armed (the run is then durable and re-attachable).
//
// stop() is not a cancel: running runs end cancelled, queued runs stay
// queued — with a journal a restart recovers them, without one they are
// dropped with the process (no DONE).
//
// Guarantees (tests/serve_lifecycle_test.cpp checks them): ACCEPTED
// precedes every other line of its run; a subscriber sees CHECKPOINT seqs
// strictly increasing, an ATTACH replay and the live stream without gap
// or duplicate; CANCELLING precedes its run's DONE; the outcome counters
// and the `done` record precede DONE; each ACCEPTED id gets one DONE.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "obs/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"

namespace rdcn::serve {

/// The daemon's options.  Each is one rdcn_serve flag, whose --help text
/// says what it does; most are lifecycle policy, the rest the daemon's I/O.
struct ServeOptions {
  std::string socket_path;                ///< --socket (required)
  std::size_t queue_limit = 16;           ///< --queue
  /// --executors.  0 is a test hook: runs queue but never execute.
  std::size_t executors = 2;
  std::size_t cache_entries = 64;         ///< --cache (0 disables)
  std::string disk_cache_dir;             ///< --disk-cache ("" disables)
  std::string journal_dir;                ///< --journal ("" disables)
  std::uint64_t drain_ms = 5000;          ///< --drain-ms
  /// SIGTERM/SIGINT start a graceful drain.  Off by default: embedding
  /// processes own their signals; rdcn_serve's main() sets it.
  bool handle_signals = false;
  std::size_t threads = 0;                ///< --threads (0 = all cores)
  std::uint32_t retry_hint_ms = 200;      ///< --retry-ms
  std::size_t quarantine_threshold = 3;   ///< --quarantine (0 disables)
  std::uint64_t quarantine_ttl_s = 0;     ///< --quarantine-ttl-s (0 = never)
  std::uint64_t progress_timeout_ms = 0;  ///< --progress-timeout-ms
  std::string faults;                     ///< --faults (RDCN_FAULTS too)
  std::string metrics_dump_path;          ///< --metrics-dump
  std::uint64_t metrics_dump_ms = 1000;   ///< --metrics-dump-ms
};

/// EWMA of completed-run durations → honest REJECT retry hints: with Q
/// runs queued and E executors, a slot frees in about ewma·(Q+1)/E.
/// Externally synchronized.
class DrainEstimator {
 public:
  void observe_run_ns(std::uint64_t ns) {
    // alpha = 1/5: a few runs settle the estimate, one outlier doesn't
    // own it.
    ewma_ns_ = ewma_ns_ == 0 ? ns : (ns + 4 * ewma_ns_) / 5;
  }

  std::uint64_t ewma_ns() const noexcept { return ewma_ns_; }

  /// Suggested retry delay.  Before any observation the configured
  /// `fallback_ms` stands in; afterwards the hint is clamped to
  /// [1, 60000] ms so a pathological EWMA can't tell clients "never".
  std::uint32_t retry_ms(std::size_t queued, std::size_t executors,
                         std::uint32_t fallback_ms) const;

 private:
  std::uint64_t ewma_ns_ = 0;
};

/// A run's terminal status.  The order is the registration order of the
/// per-status metric children, and among the cancellation causes it is
/// their precedence: kCancelled < kDeadlineExceeded < kStalled.
enum class RunStatus : std::uint8_t {
  kOk, kCancelled, kDeadlineExceeded, kStalled, kError
};
inline constexpr std::size_t kRunStatuses = 5;
/// The DONE status= token.
const char* status_name(RunStatus status);

/// The daemon's handle for one client connection (0 = none).
using ConnId = std::uint64_t;

class Lifecycle {
 public:
  /// Journal records to append first, then wire units for connections.
  struct Outbox {
    std::vector<std::string> records;
    std::vector<std::pair<ConnId, std::string>> lines;
    bool terminal = false;  ///< a `done` record is among them
  };

  /// A parsed RUN.
  struct Submission {
    ConnId conn = 0;
    std::string canonical;
    std::uint64_t deadline_ms = 0;
  };

  struct Job {  ///< a run an executor picked up
    std::uint64_t id = 0;
    std::string canonical;
    bool recovered = false;
    CancelToken cancel;
  };

  /// How the executor's run ended.  `text`: the payload or the error.
  struct Outcome {
    enum class Kind { kOk, kCancelled, kSpecError, kCrash };
    Kind kind = Kind::kOk;
    std::string text;
    bool cached = false;  ///< kOk served from the results cache
  };

  struct Replay {  ///< a finished run, for an ATTACH to replay
    RunStatus status = RunStatus::kOk;
    std::string canonical;
    std::uint64_t last_seq = 0;
    std::vector<std::string> lines;  ///< ring CHECKPOINTs with seq >= from
  };

  /// When to tick() again (UINT64_MAX = no timer); whether a drain ended.
  struct Tick {
    std::uint64_t wake_ns = UINT64_MAX;
    bool drained = false;
  };

  /// The run metrics register in `registry`.
  Lifecycle(const ServeOptions& options, obs::Registry& registry);

  /// Whether this build can run a recovered run's spec; false ends the
  /// run `error` at restore, before it is queued.
  using SpecCheck = std::function<bool(const Journal::RecoveredRun&)>;
  /// Run ids are leased kIdLease at a time: open() journals `nextid
  /// <bound>` when it reaches the bound, so a restart resumes above every
  /// id handed out, a cache hit's included, at one record per lease.
  static constexpr std::uint64_t kIdLease = 1024;

  /// Restores a journal's live state: the id counter, the streaks
  /// (touched now) and the incomplete runs, re-queued in admission order
  /// with their deadlines re-armed from now.
  void restore(const Journal::Recovery& recovery, std::uint64_t now_ns,
               const SpecCheck& parses, Outbox& out);

  /// Admission's first step, hit or miss: the run's id, or 0 when
  /// refused (`injected_reject` is asked last).
  std::uint64_t open(const Submission& s, std::uint64_t now_ns,
                     const std::function<bool()>& injected_reject,
                     Outbox& out);
  /// Step two on a cache hit: counts the run ok (it is never queued).
  void hit() { m_.runs[static_cast<std::size_t>(RunStatus::kOk)]->inc(); }
  /// Otherwise: REJECT, or ACCEPTED and queued.  True when admitted.
  bool enqueue(const Submission& s, std::uint64_t id, std::uint64_t now_ns,
               Outbox& out);

  /// Takes the oldest queued run.  False when none.
  bool pickup(std::uint64_t now_ns, Job* job);
  /// A checkpoint: the next seq, sent to subscribers and kept in the ring.
  void checkpoint(std::uint64_t id, const std::string& label,
                  std::uint64_t seed, const sim::Checkpoint& checkpoint,
                  std::uint64_t now_ns, Outbox& out);
  /// The executor returned.  True when this quarantined the spec.
  bool finish(std::uint64_t id, Outcome outcome, std::uint64_t now_ns,
              Outbox& out);

  /// CANCEL: CANCELLING, then the cancel; false (ERROR) for an id that is
  /// neither queued nor running.
  bool cancel(ConnId conn, std::uint64_t id, std::uint64_t now_ns,
              Outbox& out);
  enum class Attach { kUnknown, kLive, kDone };
  /// ATTACH: kLive queues ATTACHED and the ring replay and subscribes;
  /// kDone fills `done` (attached() counts it once replayed); kUnknown
  /// queues the refusal.
  Attach attach(ConnId conn, std::uint64_t id, std::uint64_t from,
                Outbox& out, Replay* done);
  void attached() { m_.attach_total.inc(); }
  /// `conn` left: it unsubscribes everywhere; its orphans are cancelled.
  void disconnect(ConnId conn, std::uint64_t now_ns, Outbox& out);
  /// RESET: the number of streaks cleared.
  std::size_t reset(const std::string& spec, bool all, Outbox& out);

  /// Admissions refuse from here on; tick() times the drain.  Once.
  void begin_drain(std::uint64_t now_ns) {
    if (drain_ != Drain::kNone) return;
    drain_ = Drain::kDraining;
    drain_begin_ns_ = now_ns;
  }
  /// Fires what is due: deadlines, the stall watchdog (when `watch`), and
  /// a drain's budget.
  Tick tick(std::uint64_t now_ns, bool watch, Outbox& out);
  /// The daemon is stopping (see the module comment).
  void stop();

  std::size_t queued() const noexcept { return queue_.size(); }
  /// Fills STATS' run fields (every field but the results cache's).
  void stats(StatsReport& report) const;

 private:
  enum class State : std::uint8_t { kQueued, kRunning, kDone };
  enum class Drain : std::uint8_t { kNone, kDraining, kDrained };
  struct Subscriber {
    ConnId conn = 0;
    std::uint64_t from = 1;  ///< CHECKPOINTs below this seq are skipped
  };
  struct Run {
    std::uint64_t id = 0;
    std::string canonical;
    bool recovered = false;
    State state = State::kQueued;
    RunStatus cause = RunStatus::kOk;  ///< highest cancel cause; kOk = none
    RunStatus status = RunStatus::kOk;  ///< valid once kDone
    CancelToken cancel = CancelToken::make();
    std::uint64_t admitted_ns = 0;
    std::uint64_t started_ns = 0;
    std::uint64_t progress_ns = 0;  ///< pickup or the last checkpoint
    std::uint64_t next_seq = 1;
    std::deque<std::pair<std::uint64_t, std::string>> ring{};
    std::vector<Subscriber> subscribers{};  ///< cleared at the terminal
  };
  struct Streak { std::size_t count = 0; std::uint64_t touched_ns = 0; };
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    std::array<obs::Counter*, kRunStatuses> runs;  ///< cache hits in ok
    std::array<obs::Histogram*, kRunStatuses> run_seconds;  ///< executed
    obs::Counter& crashes;  ///< non-SpecError escapes (a subset of error)
    obs::Counter& rejected;  ///< REJECT reason=queue_full
    obs::Counter &quarantined, &recovered, &attach_total;
    obs::Gauge &queue_depth, &active_runs;
    obs::Histogram &queue_wait, &drain_seconds;
  };

  Run* live(std::uint64_t id) {
    const auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
  }
  void queue(Run run);
  /// REJECT reason=queue_full with the drain-rate hint.
  void reject(ConnId conn, Outbox& out);
  /// Raises the run's cause to `why`; a queued run ends at once, a running
  /// one is told through its token.
  void interrupt(Run& run, RunStatus why, std::uint64_t now_ns, Outbox& out);
  /// The one terminal transition.  Returns true when it quarantined.
  bool end(Run& run, RunStatus status, const Outcome* outcome,
           std::uint64_t now_ns, Outbox& out);

  const ServeOptions& options_;
  Metrics m_;
  std::deque<std::uint64_t> queue_;  ///< queued run ids, oldest first
  DrainEstimator drain_est_;
  std::map<std::uint64_t, Run> live_;  ///< queued + running, in id order
  std::deque<Run> recent_;  ///< terminal runs for late ATTACH, bounded
  std::multimap<std::uint64_t, std::uint64_t> deadlines_;  ///< ns → id
  std::map<std::string, Streak> streaks_;  ///< canonical spec → streak
  std::uint64_t next_id_ = 1;
  std::uint64_t leased_ = 1;  ///< ids below it are journalled as used
  Drain drain_ = Drain::kNone;
  std::uint64_t drain_begin_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace rdcn::serve
