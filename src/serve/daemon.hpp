// rdcn: rdcn_serve — the long-running scenario-serving daemon.
//
// Turns the spec-driven scenario layer into a service: clients connect to
// a local (AF_UNIX) stream socket, submit ScenarioSpec strings with one
// RUN line, and get back streamed CHECKPOINT progress plus the run's CSV
// table — the same bytes a direct rdcn_sim --csv run produces.  See
// serve/protocol.hpp for the wire format.
//
// Execution model — three thread roles:
//   * one reader thread per connection parses its commands and answers
//     them — admission, CANCEL, ATTACH, STATS/METRICS, and cache hits,
//     whose stored bytes go out from the reader itself.  Commands stay on
//     the readers because the daemon's CPU goes there: on serve_cached
//     (4-vCPU host) four readers use about two cores, 16-19 µs of CPU per
//     cached RUN, and pinning every daemon thread to one core halves
//     throughput (109-135k to 53-58k runs/s).  Replies may interleave
//     across runs, attributed by id.  A newline-free stream past 1 MiB
//     gets ERROR reason=line_too_long and the connection closed;
//   * a small executor set runs admitted runs (below);
//   * one housekeeping loop thread sleeps in poll() on the listening
//     socket and a wake pipe, which is also the SIGTERM/SIGINT self-pipe.
//     It accepts connections and starts their readers, joins readers that
//     exited, and owns every timer: run deadlines, the progress and
//     brownout tick, the graceful drain's budget and straggler grace, and
//     the metrics-dump period.
//
// Admission and execution:
//   * admitted runs wait in a bounded deficit-round-robin queue, one lane
//     per client (HELLO client=<name> binds a connection; anonymous
//     traffic pools under "anon"), charged in estimated cost units — many
//     small scenarios interleave with one giant matrix instead of
//     queueing behind it.  Submissions beyond the bound are rejected with
//     a retry hint computed from the measured drain rate (backpressure)
//     instead of queueing unboundedly;
//   * per-client quotas (token-bucket admission rate + max concurrent
//     runs, defaults from --quota-*, per-client overrides from a quota
//     file) refuse with REJECT reason=quota and an honest retry hint
//     from the bucket refill;
//   * a hysteretic brownout state machine over queue depth and an RSS
//     watermark sheds the lowest-priority submissions first (RUN
//     priority=<0-2>) with REJECT reason=shed before the queue bound
//     itself has to refuse.  The level is re-evaluated at every admission
//     and executor pickup, and on the loop's tick when the RSS watermark
//     or the progress monitor is configured;
//   * the executors drain the queue, each run executing
//     scenario::run_scenario on the process-wide persistent ThreadPool
//     (trial parallelism) with a CancelToken threaded down to the
//     simulator's serve-chunk loop — CANCEL stops a run within one
//     4096-request chunk and frees its executor and pool slots;
//   * RUN ... deadline_ms=<n> arms a monotonic-clock deadline on the
//     loop: a run still going n ms after admission is cancelled through
//     the same cooperative token and reported as DONE
//     status=deadline_exceeded;
//   * with --progress-timeout-ms set, the loop's tick also cancels a
//     running task whose checkpoint stream stopped advancing for that
//     long and reports DONE status=stalled — and the stall extends the
//     spec's quarantine streak, so a spec that reliably wedges executors
//     gets fenced off like one that crashes them;
//   * completed CSV payloads land in an LRU ResultsCache keyed on
//     ScenarioSpec::canonical_string(), and — when disk_cache_dir is set —
//     in a crash-safe on-disk store (serve/disk_cache.hpp) that survives
//     restarts: a restarted daemon serves previously completed specs with
//     cached=1, bit-identical payloads.
//
// Run lifecycle durability (journal_dir set — serve/journal.hpp):
//   * admissions, pickups, checkpoints, and terminals are journalled
//     (record-before-wire-line); a crashed daemon re-enqueues every
//     incomplete run at restart — deterministic recompute, results land
//     in the caches — and restores quarantine streaks and the id counter;
//   * every run keeps a bounded ring of its CHECKPOINT lines and a
//     subscriber list: ATTACH <id> [from=<k>] (from any connection, any
//     process, before or after a daemon restart) replays the missed
//     checkpoints and joins the live stream;
//   * a run with a journal armed outlives its submitter: a disconnected
//     client orphans the run but it finishes (re-attachable, cacheable).
//     Without a journal the old policy stands — an orphaned run is
//     cancelled at its next checkpoint to free the executor;
//   * SIGTERM/SIGINT (when handle_signals — the handler only writes the
//     loop's wake pipe) and SHUTDOWN drain=1 begin a graceful drain:
//     admissions refuse with ERROR reason=draining, in-flight runs get
//     drain_ms to finish, then stragglers are cancelled cooperatively and
//     get 1 s more, the journal is flushed, and
//     wait_for_shutdown_command() returns.
//
// Failure containment:
//   * invalid specs — parse failures, unknown components, bad parameters —
//     report as ERROR lines (SpecError text with registry suggestions);
//     the daemon never dies on client input;
//   * any non-SpecError escaping a run (a bug, an injected crash) is
//     caught and reported as ERROR internal=<what> + DONE status=error;
//     the executor thread survives.  A spec that crashes
//     quarantine_threshold times consecutively is quarantined: further
//     submissions fast-fail with ERROR reason=quarantined instead of
//     re-wedging executors (a later success would clear the streak).
//     Streaks age out after quarantine_ttl_s of quiet (0 = never), and an
//     operator can clear them without a restart via RESET spec=<canonical>
//     or RESET all=1;
//   * every outcome is counted and visible through STATS (completed /
//     cancelled / deadline_exceeded / crashed / rejected / quarantined /
//     disk-cache hits / corrupt entries skipped);
//   * the common/fault.hpp injection points wrapped around socket sends,
//     admission, executor launch, and disk-cache writes let tests force
//     each of these paths deterministically (arm via ServeOptions::faults
//     or the RDCN_FAULTS environment variable); unarmed they cost one
//     relaxed atomic load.
#pragma once

#include <signal.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/disk_cache.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/results_cache.hpp"

namespace rdcn::serve {

struct ServeOptions {
  /// Filesystem path of the AF_UNIX listening socket (required).  An
  /// existing stale socket file is replaced.
  std::string socket_path;
  /// Maximum runs waiting for an executor; submissions past this get a
  /// REJECT with a retry hint.  Running runs don't count.
  std::size_t queue_limit = 16;
  /// Concurrent scenario runs.  0 is a test hook: runs are admitted and
  /// queued but never executed.
  std::size_t executors = 2;
  /// ResultsCache capacity in entries (0 disables caching).
  std::size_t cache_entries = 64;
  /// Directory of the persistent on-disk results cache ("" disables).
  /// Created if missing; corrupt entries are skipped at startup.
  std::string disk_cache_dir;
  /// Directory of the write-ahead run journal ("" disables).  With a
  /// journal, queued/running runs survive a daemon crash: at restart they
  /// are re-enqueued (deterministic recompute), quarantine streaks are
  /// restored, and run ids stay stable so ATTACH works across restarts.
  std::string journal_dir;
  /// Milliseconds a graceful drain (signal or SHUTDOWN drain=1) waits for
  /// in-flight runs before cancelling the stragglers cooperatively.
  std::uint64_t drain_ms = 5000;
  /// Install SIGTERM/SIGINT handlers (self-pipe trick) that trigger a
  /// graceful drain.  Off by default: embedding processes and tests own
  /// their signal dispositions; rdcn_serve's main() turns it on.
  bool handle_signals = false;
  /// Worker threads per run's trial parallelism (0 = all cores).
  std::size_t threads = 0;
  /// Hint returned with REJECT responses.
  std::uint32_t retry_hint_ms = 200;
  /// Consecutive executor crashes of one canonical spec before it is
  /// quarantined (submissions fast-fail).  0 disables quarantining.
  std::size_t quarantine_threshold = 3;
  /// Seconds of quiet after which a crash streak ages out (an old flaky
  /// spec gets a fresh chance without an operator RESET).  0 = never.
  std::uint64_t quarantine_ttl_s = 0;
  /// Default per-client admission rate in runs/s (0 = unlimited) and
  /// token-bucket burst (0 derives max(1, 2·rps)).
  double quota_rps = 0;
  double quota_burst = 0;
  /// Default per-client concurrent (queued+running) run cap (0 = none).
  std::size_t quota_concurrent = 0;
  /// Per-client quota overrides (admission.hpp QuotaTable file format);
  /// "" = the --quota-* defaults apply to everyone.
  std::string quota_file;
  /// RSS watermark in MiB for brownout load shedding (0 disables the RSS
  /// leg; queue depth still drives levels).
  std::uint64_t max_rss_mb = 0;
  /// Under brownout (level >= 1), also shed submissions whose estimated
  /// cost exceeds this many units unless they are priority 2 (0 = no
  /// cost-based shedding).
  std::uint64_t shed_cost_limit = 0;
  /// Cancel a *running* task whose checkpoint stream hasn't advanced in
  /// this long: DONE status=stalled.  0 disables the progress watchdog.
  std::uint64_t progress_timeout_ms = 0;
  /// DRR credit (cost units) each backlogged client earns per round.
  std::uint64_t drr_quantum = 4096;
  /// Fault-injection spec armed at start() (fault::arm_from_spec syntax);
  /// "" arms nothing.  RDCN_FAULTS in the environment is applied too.
  std::string faults;
  /// When non-empty, the housekeeping loop writes the full metric registry
  /// (plus the merged trace tree) as JSON to this file every
  /// metrics_dump_ms, atomically (temp-file + rename), and once more at
  /// stop().
  std::string metrics_dump_path;
  std::uint64_t metrics_dump_ms = 1000;
};

class Daemon {
 public:
  explicit Daemon(ServeOptions options);
  ~Daemon();  ///< calls stop()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket, loads the disk cache, arms configured faults, and
  /// spawns the housekeeping loop and the executor threads.  Throws
  /// SpecError when the socket cannot be created/bound.
  void start();

  /// Wakes and joins the loop (nothing accepts any more), cancels every
  /// queued/running run, shuts the connections down, joins the readers
  /// and executors, writes the last metrics dump, and removes the socket
  /// file.  Idempotent.  Must not be called from a daemon thread (a
  /// SHUTDOWN command instead *requests* shutdown; the owner observes it
  /// via wait_for_shutdown_command).
  void stop();

  /// Blocks until a client sent SHUTDOWN (or stop() was called).
  void wait_for_shutdown_command();

  const ServeOptions& options() const noexcept { return options_; }
  ResultsCache::Stats cache_stats() const { return cache_.stats(); }
  DiskCache::Stats disk_cache_stats() const { return disk_cache_.stats(); }
  /// The same snapshot a STATS command reports — assembled from the
  /// metrics registry, the single source of truth for every counter.
  StatsReport stats_report() const;
  /// This daemon's metric registry (admission, runs, caches).  Process-
  /// wide metrics (pool, simulator, faults) are in obs::Registry::global().
  const obs::Registry& metrics() const noexcept { return obs_; }
  /// Prometheus text exposition: daemon registry + process registry, the
  /// exact bytes a METRICS command returns.
  std::string metrics_text() const;

 private:
  struct Connection;
  struct RunTask;

  /// The housekeeping thread (see the execution model above).
  void loop();
  /// Makes loop() re-evaluate its fds and timers now.  Any thread.
  void wake_loop();
  void accept_connection();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  /// Returns false when the connection should close (SHUTDOWN).
  bool handle_command(const std::shared_ptr<Connection>& conn,
                      const std::string& line);
  void handle_run(const std::shared_ptr<Connection>& conn,
                  const Command& cmd);
  void handle_attach(const std::shared_ptr<Connection>& conn,
                     const Command& cmd);
  /// Starts the graceful drain exactly once (signal, SHUTDOWN drain=1);
  /// the loop times it from here.  Caller holds mu_.
  void begin_drain_locked();
  void executor_loop();
  void execute(const std::shared_ptr<RunTask>& task);
  void write_metrics_dump() const;
  /// Joins reader threads listed in finished_readers_ (caller holds mu_).
  void reap_finished_readers_locked();
  void send_payload(Connection& conn, std::uint64_t id, bool cached,
                    const std::string& payload);
  /// A finished run's stored bytes: the in-memory LRU first, then the
  /// persistent store (which a restarted daemon repopulates the LRU from;
  /// a disk hit is promoted into the LRU).  nullopt when neither has it.
  std::optional<std::string> lookup_result(const std::string& canonical);

  ServeOptions options_;
  /// Per-instance registry: declared before the caches so their counters
  /// can register here; a fresh daemon starts every counter at zero even
  /// when several daemons run sequentially in one (test) process.
  obs::Registry obs_;
  /// Handles into obs_, resolved once at construction so record sites
  /// are single relaxed adds.  Terminal-outcome counters are bumped
  /// under mu_ BEFORE the DONE line goes out (see execute()).
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    obs::Counter& runs_ok;        ///< DONE status=ok (cache hits included)
    obs::Counter& runs_cancelled;
    obs::Counter& runs_deadline;
    obs::Counter& runs_stalled;   ///< DONE status=stalled (progress watchdog)
    obs::Counter& runs_error;     ///< DONE status=error (crash or SpecError)
    obs::Counter& crashes;        ///< non-SpecError escapes (subset of error)
    obs::Counter& rejected;       ///< REJECT reason=queue_full|quota
    obs::Counter& shed;           ///< REJECT reason=shed (disjoint from ^)
    obs::Counter& quarantined;
    obs::Counter& recovered;      ///< runs re-enqueued from the journal
    obs::Counter& attach_total;   ///< successful ATTACH subscriptions
    obs::Gauge& queue_depth;
    obs::Gauge& active_runs;
    obs::Gauge& brownout_level;      ///< current shedding level (0-2)
    obs::Histogram& admission_wait;  ///< admission -> executor pickup
    obs::Histogram& queue_wait_p0;   ///< the same wait, split by priority
    obs::Histogram& queue_wait_p1;
    obs::Histogram& queue_wait_p2;
    obs::Histogram& run_ok;          ///< executor run latency by status
    obs::Histogram& run_cancelled;
    obs::Histogram& run_deadline;
    obs::Histogram& run_stalled;
    obs::Histogram& run_error;
    obs::Histogram& drain_seconds;   ///< graceful-drain duration
  } m_;
  ResultsCache cache_;
  DiskCache disk_cache_;
  Journal journal_;
  int listen_fd_ = -1;

  /// One client's admission state (lazily created at first submission;
  /// never dropped — the set of distinct clients is operator-bounded).
  /// Guarded by mu_, like everything around it.
  struct ClientState {
    TokenBucket bucket;
    std::size_t inflight = 0;  ///< queued + running runs charged here
    obs::Counter& admitted;
    obs::Counter& rejected;
    obs::Counter& shed;
  };
  ClientState& client_state_locked(const std::string& client);
  /// Re-evaluates the brownout level from queue depth + RSS (the RSS
  /// sample is cached ~100 ms — /proc reads are not free) and mirrors it
  /// into the gauge.  Returns the level.  Caller holds mu_.
  int update_brownout_locked();
  /// Drain-rate retry hint for a REJECT issued now.  Caller holds mu_.
  std::uint32_t reject_retry_ms_locked() const;

  mutable std::mutex mu_;
  std::condition_variable cv_exec_;      ///< executors wait for work
  std::condition_variable cv_shutdown_;  ///< owner waits for SHUTDOWN
  DrrQueue<std::shared_ptr<RunTask>> queue_;
  std::map<std::string, ClientState> clients_;
  QuotaTable quotas_;          ///< immutable after start()
  Brownout brownout_;
  DrainEstimator drain_est_;
  std::uint64_t rss_bytes_ = 0;       ///< cached read_rss_bytes()
  std::uint64_t rss_sampled_ns_ = 0;  ///< when rss_bytes_ was sampled
  /// Queued + running tasks by id (CANCEL looks up here); erased when the
  /// run reaches its DONE line.
  std::unordered_map<std::uint64_t, std::shared_ptr<RunTask>> active_;
  /// Recently finished tasks, oldest first (bounded): ATTACH to a run
  /// that just completed replays its checkpoint ring and terminal from
  /// here.  Terminal tasks hold no Connection refs (subscribers are
  /// cleared at DONE), so this retains no client fds.
  std::deque<std::shared_ptr<RunTask>> recent_;
  /// Armed deadlines, earliest first; entries for finished runs expire
  /// harmlessly (weak_ptr).
  std::multimap<MonotonicClock::time_point, std::weak_ptr<RunTask>>
      deadlines_;
  /// canonical spec → consecutive executor crashes/stalls (cleared on
  /// success, by RESET, or after quarantine_ttl_s of quiet).
  struct CrashStreak {
    std::size_t count = 0;
    std::uint64_t touched_ns = 0;  ///< last extension (TTL aging)
  };
  std::unordered_map<std::string, CrashStreak> crash_streaks_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;
  /// Reader threads that have exited (disconnected clients); the loop
  /// joins them when woken, so neither thread handles nor Connection fds
  /// accumulate over the daemon's lifetime.
  std::vector<std::thread::id> finished_readers_;
  std::uint64_t next_id_ = 1;
  bool started_ = false;
  bool shutdown_requested_ = false;
  /// Admissions refuse with ERROR reason=draining from
  /// begin_drain_locked() on, while the loop times the drain from
  /// drain_begin_ (guarded by mu_).
  bool draining_ = false;
  MonotonicClock::time_point drain_begin_;

  std::atomic<bool> stopping_{false};
  int wake_pipe_[2] = {-1, -1};  ///< any thread (or the handler) -> loop
  struct sigaction old_term_ {};
  struct sigaction old_int_ {};
  std::thread loop_thread_;
  std::vector<std::thread> executors_;
};

}  // namespace rdcn::serve
