// rdcn: rdcn_serve — the long-running scenario-serving daemon.
//
// Turns the spec-driven scenario layer into a service: clients connect to
// a local (AF_UNIX) stream socket, submit ScenarioSpec strings with one
// RUN line, and get back streamed CHECKPOINT progress plus the run's CSV
// table — the same bytes a direct rdcn_sim --csv run produces.  See
// serve/protocol.hpp for the wire format.
//
// Thread roles:
//   * one reader per connection parses its commands and answers them —
//     admission, CANCEL, ATTACH, STATS/METRICS, and cache hits, whose
//     stored bytes go out from the reader itself.  Commands stay on the
//     readers because the daemon's CPU goes there: on serve_cached
//     (4-vCPU host) four readers use about two cores, 11-12 µs of CPU per
//     cached RUN, and pinning every daemon thread to one core halves
//     throughput (164-169k to 86-91k runs/s).  A newline-free stream past
//     1 MiB gets ERROR reason=line_too_long and the connection closed;
//   * a small executor set runs admitted runs (scenario::run_scenario on
//     the process-wide ThreadPool; a cancel lands within 4096 requests).
//     A non-SpecError escaping a run ends it ERROR internal=<what> + DONE
//     status=error; the executor survives;
//   * one housekeeping loop sleeps in poll() on the listening socket and a
//     wake pipe, which is also the SIGTERM/SIGINT self-pipe.  It accepts
//     connections, joins readers that exited, and calls the lifecycle's
//     timers: deadlines, the stall watchdog's tick, the drain.
//
// The run lifecycle is one single-threaded class, serve::Lifecycle
// (serve/lifecycle.hpp states its rules), called under the mutex mu_.
// Each call returns journal records and wire lines; the daemon appends
// the records and posts the lines on their connections before it
// releases mu_, then flushes without it: a connection sends all its
// pending bytes in one write (Connection::flush).  So lines leave in the
// order the lifecycle decided them, and no send holds mu_ — except BYE,
// sent under mu_ so that stop() cannot close the socket first.
//
// I/O the daemon keeps:
//   * completed CSV payloads land in one ResultsCache keyed on
//     ScenarioSpec::canonical_string() (serve/results_cache.hpp): an LRU
//     in memory and, with disk_cache_dir, crash-safe entry files behind
//     it.  A RUN takes mu_ once: the lookup (a disk read at worst) goes
//     before it, admission and a hit's ok count (or the enqueue) share one
//     step, and a hit's ACCEPTED, RESULT and DONE leave after it in one
//     write;
//   * the journal (journal_dir, serve/journal.hpp): records are appended
//     under mu_, and a terminal record is fsync'd under mu_ before its
//     DONE is queued, so no thread can send that DONE first.  start()
//     restores the journal's live state before the socket goes live;
//   * SIGTERM/SIGINT (handle_signals) and SHUTDOWN drain=1 begin the
//     graceful drain; once it completes the journal is flushed and
//     wait_for_shutdown_command() returns;
//   * invalid specs get ERROR lines (SpecError text with suggestions): the
//     daemon never dies on client input.  The common/fault.hpp points
//     around sends, admission, executor launch and disk-cache writes force
//     each failure path in tests (unarmed, one relaxed atomic load).
#pragma once

#include <signal.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/lifecycle.hpp"
#include "serve/protocol.hpp"
#include "serve/results_cache.hpp"

namespace rdcn::serve {

class Daemon {
 public:
  explicit Daemon(ServeOptions options);
  ~Daemon();  ///< calls stop()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Arms faults, restores the journal, binds the socket, and spawns the
  /// loop and the executors.  Throws SpecError on a bad socket.
  void start();

  /// Wakes and joins the loop (nothing accepts any more), tells running
  /// runs to end cancelled (their `done` records are journalled), shuts
  /// the connections down, joins the readers and executors, writes the
  /// last metrics dump, and removes the socket file.  Queued runs are not
  /// cancelled: with a journal they stay incomplete and a restart
  /// recovers them; without one they end with the process, no DONE.
  /// Idempotent.  Must not be called from a daemon thread (a
  /// SHUTDOWN command instead *requests* shutdown; the owner observes it
  /// via wait_for_shutdown_command).
  void stop();

  /// Blocks until a client sent SHUTDOWN (or stop() was called).
  void wait_for_shutdown_command();

  const ServeOptions& options() const noexcept { return options_; }
  /// The snapshot a STATS command reports, read from the metrics.
  StatsReport stats_report() const;
  /// The Prometheus text a METRICS command returns (both registries).
  std::string metrics_text() const;

 private:
  struct Connection;

  void loop();  ///< the housekeeping thread
  /// Makes loop() re-evaluate its fds and timers now.  Any thread.
  void wake_loop();
  void accept_connection();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  /// Returns false when the connection should close (SHUTDOWN).
  bool handle_command(const std::shared_ptr<Connection>& conn,
                      std::string_view line);
  void handle_run(const std::shared_ptr<Connection>& conn,
                  const Command& cmd);
  void handle_attach(const std::shared_ptr<Connection>& conn,
                     const Command& cmd);
  void executor_loop();
  Lifecycle::Outcome execute(const Lifecycle::Job& job);
  /// Calls `call(outbox)` on the lifecycle under mu_, appends the
  /// outbox's records to the journal (fsyncing a terminal one) and queues
  /// its lines on their connections; then sends them without mu_.
  template <typename Call>
  void step(Call&& call);
  void write_metrics_dump() const;
  /// Joins reader threads listed in finished_readers_ (caller holds mu_).
  void reap_finished_readers_locked();

  ServeOptions options_;
  /// Declared before the lifecycle, the cache and the journal, whose
  /// counters register here; each daemon's counters start at zero.
  obs::Registry obs_;
  Lifecycle lifecycle_;  ///< guarded by mu_
  ResultsCache cache_;
  Journal journal_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable cv_exec_;      ///< executors wait for work
  std::condition_variable cv_shutdown_;  ///< owner waits for SHUTDOWN
  std::unordered_map<ConnId, std::shared_ptr<Connection>> conns_;
  ConnId next_conn_ = 1;
  std::vector<std::thread> conn_threads_;
  /// Readers that exited; the loop joins them, so none accumulate.
  std::vector<std::thread::id> finished_readers_;
  bool started_ = false;
  bool shutdown_requested_ = false;

  std::atomic<bool> stopping_{false};
  int wake_pipe_[2] = {-1, -1};  ///< any thread (or the handler) -> loop
  struct sigaction old_term_ {};
  struct sigaction old_int_ {};
  std::thread loop_thread_;
  std::vector<std::thread> executors_;
};

}  // namespace rdcn::serve
