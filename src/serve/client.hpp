// rdcn: blocking line-protocol client for the rdcn_serve daemon.
//
// Synchronous by design — each call sends one command and blocks for its
// reply — yet any number of runs may be in flight on one connection and
// collected in any order: submit() sends RUN and reads the admission
// verdict; collect(id) consumes run id's CHECKPOINT stream, RESULT
// payload, and DONE line.  Every read goes through one router.  A line
// from the daemon is either the reply the current call waits for, or a
// line of some run's stream (CHECKPOINT, RESULT with its payload lines,
// DONE), which is queued under that run's id until collect(id) takes it —
// so ping(), stats(), metrics() or another submit() may run while runs
// stream.  A CANCELLING ack is the reply only cancel() waits for; other
// calls skip it.  ERROR lines carry no run id: an ERROR is the verdict
// while submit(), attach() or cancel() waits for one, and the collected
// run's error while collect() runs.  Any other line a call does not
// expect throws SpecError.
//
// run_scenario() wraps submit + collect in a bounded retry loop: REJECT
// backpressure is honored (server retry hint + exponential backoff with
// deterministic jitter) and transient disconnects are survived by
// reconnecting and ATTACHing to the run by its ACCEPTED id — the daemon
// replays missed checkpoints and the stream resumes where it broke.  A
// daemon that forgot the run (restart without a journal, eviction)
// answers ERROR reason=unknown_run and the client falls back to a blind
// resubmit; a run that completed server-side is then answered from the
// results cache, so no work is repeated either way.
//
// Transport failures throw TransportError, whose kind() distinguishes the
// daemon being *gone* (kEof: orderly close; kIo: hard socket error) from
// the daemon being *slow* (kTimeout: no bytes within the read timeout).
// The retry loop reconnects through the first two and rethrows the third
// — retrying against a wedged daemon would only pile up work.
//
// Used by the rdcn_serve_client binary, the e2e smoke check, and the
// serve test suites; also a readable reference for writing clients in
// other languages.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_map>

#include "common/param_map.hpp"
#include "serve/protocol.hpp"

namespace rdcn::serve {

/// A socket-level failure talking to the daemon.  Subtype of SpecError so
/// existing catch sites keep working; kind() lets retry logic react
/// differently to "daemon gone" vs "daemon slow".
class TransportError : public SpecError {
 public:
  enum class Kind {
    kEof,      ///< daemon closed the connection (orderly EOF)
    kTimeout,  ///< no bytes within the read timeout (daemon slow or hung)
    kIo,       ///< send/recv failed outright (connection reset, ...)
  };
  TransportError(Kind kind, const std::string& message)
      : SpecError(message), kind_(kind) {}
  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

class Client {
 public:
  Client() = default;
  ~Client();  ///< closes the connection

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to the daemon's AF_UNIX socket, retrying (the daemon may
  /// still be binding) until `timeout_ms` elapses.  Throws SpecError on
  /// failure.  The path is remembered for reconnect().
  void connect(const std::string& socket_path, int timeout_ms = 10'000);

  /// Re-dials the last connect()ed socket path (run_scenario's disconnect
  /// recovery).  Throws SpecError when never connected.
  void reconnect(int timeout_ms = 10'000);

  bool connected() const noexcept { return fd_ >= 0; }
  void disconnect();

  /// PING/PONG round-trip; throws SpecError on anything else.
  void ping();

  /// HELLO handshake: binds this connection (and every reconnect made by
  /// run_scenario) to `client`'s quota and fairness lane.  Throws
  /// SpecError when the daemon refuses the name.
  void hello(const std::string& client);

  /// Priority attached to subsequent RUN submissions (0-2; default 1).
  /// Under daemon brownout, lower priorities are shed first.
  void set_priority(int priority) { priority_ = priority; }

  /// Admission verdict for one RUN submission.  Exactly one of
  /// accepted/rejected is set unless the spec was refused (error text).
  struct Submission {
    std::uint64_t id = 0;
    bool accepted = false;
    bool rejected = false;        ///< backpressure (see reason)
    std::uint32_t retry_ms = 0;   ///< suggested resubmit delay when rejected
    std::string reason;           ///< "queue_full" | "quota" | "shed"
    std::string error;            ///< non-empty when the spec was refused
  };
  /// `deadline_ms` > 0 asks the daemon to abandon the run (DONE
  /// status=deadline_exceeded) that many milliseconds after admission.
  Submission submit(const std::string& spec, std::uint64_t deadline_ms = 0);

  /// Everything after admission, up to the run's DONE line.
  struct RunOutput {
    std::string status;     ///< "ok" | "cancelled" | "deadline_exceeded"
                            ///< | "stalled" | "error"
    bool cached = false;    ///< payload replayed from the results cache
    std::string csv;        ///< CSV payload (empty unless status "ok")
    std::size_t checkpoints = 0;  ///< progress lines seen
    std::string error;      ///< ERROR text when status "error"
    std::size_t attempts = 1;  ///< run_scenario: submissions made in total
  };
  /// Reads run `id` to completion.  `on_checkpoint` (optional) sees each
  /// raw CHECKPOINT line as it streams in.
  RunOutput collect(std::uint64_t id,
                    const std::function<void(const std::string& line)>&
                        on_checkpoint = {});

  /// Outcome of one ATTACH request.
  struct AttachResult {
    bool attached = false;
    std::string state;  ///< "queued" | "running" | "done" when attached
    std::uint64_t last_seq = 0;  ///< highest checkpoint seq emitted so far
    std::string error;  ///< refusal text (reason=unknown_run, ...)
  };
  /// Resubscribes to run `id` (same or a different connection/process;
  /// across daemon restarts when the daemon journals).  Checkpoints with
  /// seq >= `from` replay immediately; collect(id) then consumes the
  /// replayed + live stream to DONE exactly like a fresh submission.
  AttachResult attach(std::uint64_t id, std::uint64_t from = 1);

  /// Retry policy for run_scenario: attempt k (0-based) backs off
  /// max(server retry hint, base_backoff_ms·2^k) capped at
  /// max_backoff_ms, then sleeps a uniformly jittered span in
  /// [delay/2, delay] drawn from a SplitMix64 stream seeded with
  /// jitter_seed — deterministic for tests, decorrelated in a fleet.
  struct RetryPolicy {
    std::size_t max_attempts = 5;        ///< total submissions before giving up
    std::uint32_t base_backoff_ms = 50;
    std::uint32_t max_backoff_ms = 2'000;
    /// Server retry hints are honored but clamped here: a brownout-inflated
    /// hint shouldn't park a client for a minute on one REJECT.
    std::uint32_t max_retry_hint_ms = 10'000;
    std::uint64_t jitter_seed = 0;       ///< 0 = derive from this process
    int reconnect_timeout_ms = 2'000;    ///< per reconnect attempt
  };

  /// Submits `spec` and collects it to completion, retrying through
  /// REJECT backpressure and transient disconnects per `policy`.
  /// Spec refusals (ERROR before ACCEPTED) return status "error"
  /// immediately — they are permanent, retrying cannot help.  Throws
  /// TransportError(kTimeout) when the daemon goes silent mid-run, and
  /// SpecError when max_attempts is exhausted.
  RunOutput run_scenario(const std::string& spec,
                         const RetryPolicy& policy,
                         std::uint64_t deadline_ms = 0,
                         const std::function<void(const std::string& line)>&
                             on_checkpoint = {});
  RunOutput run_scenario(const std::string& spec) {
    return run_scenario(spec, RetryPolicy{});
  }

  /// Requests cancellation of a queued or running run.  Returns true when
  /// the daemon acknowledged (CANCELLING); false when the id was unknown.
  /// The run itself still terminates through collect() with status
  /// "cancelled" — cancellation is cooperative, not instant.
  bool cancel(std::uint64_t id);

  /// RESET spec=<canonical>: clears one quarantine streak.  Returns the
  /// number of streak entries cleared (0 or 1).
  std::size_t reset_quarantine(const std::string& canonical_spec);
  /// RESET all=1: clears every quarantine streak; returns how many.
  std::size_t reset_all();

  /// The daemon's one-line STATS report, verbatim.
  std::string stats();
  /// The same report parsed (serve/protocol.hpp StatsReport fields).
  StatsReport stats_report();

  /// The daemon's full metric registry as Prometheus text exposition
  /// (METRICS command): daemon counters/gauges/histograms plus the
  /// process-wide registry (pool, simulator, fault firings).
  std::string metrics();

  /// Sends SHUTDOWN and waits for BYE.  With `drain` the daemon stops
  /// admitting, finishes in-flight runs (bounded by its --drain-ms), and
  /// exits gracefully.  The daemon finishes tearing down after the
  /// socket closes.
  void shutdown_daemon(bool drain = false);

  /// Per-read silence budget before read_line throws
  /// TransportError(kTimeout).  Default 600 s — a healthy run checkpoints
  /// far more often than that.  Applies to the current connection
  /// immediately and to future (re)connects.  Tests shrink it to exercise
  /// the timeout path without waiting minutes.
  void set_read_timeout_seconds(long seconds);

  // Low-level access (used by tests to speak the protocol directly).
  void send_line(const std::string& line);
  /// Next line from the socket, bypassing the router: run lines already
  /// queued for collect() stay queued.  Throws TransportError — kEof on
  /// orderly close, kTimeout on read-timeout expiry, kIo on socket errors
  /// — so callers can tell "daemon gone" from "daemon slow".
  std::string read_line();

 private:
  /// One line from the daemon, plus the payload lines that follow a
  /// RESULT or METRICS header.
  struct Message {
    ServerLine line;
    std::string raw;      ///< the line as received
    std::string payload;  ///< RESULT/METRICS: `line.lines` lines, each
                          ///< newline-terminated
  };
  /// The router.  Returns the next message of run `run`'s stream (queued
  /// or read now) — or, with run 0, the next message that belongs to no
  /// run's stream.  Stream messages of other runs read on the way are
  /// queued under their id.
  Message next_message(std::uint64_t run);
  /// next_message(0) until a message of one of `replies` arrives;
  /// CANCELLING acks are skipped, anything else throws SpecError.
  Message await_reply(std::initializer_list<ServerLine::Kind> replies,
                      const char* verb);
  std::size_t reset_common(const std::string& line);

  int fd_ = -1;
  std::string buffer_;       ///< bytes received beyond the last full line
  /// Runs' stream messages read while the caller waited for something
  /// else, oldest first; an id has an entry only while it has messages.
  std::unordered_map<std::uint64_t, std::deque<Message>> streams_;
  std::string socket_path_;  ///< last connect() target, for reconnect()
  std::string client_name_;  ///< hello() binding, replayed on reconnect
  int priority_ = 1;         ///< RUN priority= (1 = the wire default)
  long read_timeout_seconds_ = 600;
};

}  // namespace rdcn::serve
