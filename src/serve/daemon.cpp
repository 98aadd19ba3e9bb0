#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "common/cancel.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"
#include "sim/report.hpp"

namespace rdcn::serve {

namespace {

/// Reader-side line cap: a client streaming bytes without a newline is
/// malformed (or malicious); past this the connection is refused instead
/// of growing the buffer without bound.
constexpr std::size_t kMaxLineBytes = 1u << 20;

/// CHECKPOINT lines retained per run for ATTACH replay.  An attacher that
/// missed more than this sees a gap — the ring bounds daemon memory, the
/// RESULT payload is never gapped.
constexpr std::size_t kCheckpointRing = 128;

/// Terminal tasks retained for late ATTACH (state=done replay).
constexpr std::size_t kRecentRuns = 256;

/// The only state a signal handler touches: a flag the loop reads once
/// woken, and the write end of the loop's wake pipe.
std::atomic<bool> g_drain_signalled{false};
std::atomic<int> g_signal_wake_fd{-1};

void drain_signal_handler(int) {
  const int saved_errno = errno;
  g_drain_signalled.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // Non-blocking: a full pipe already holds a wake-up, and the flag
    // carries the signal itself.
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
  errno = saved_errno;
}

/// Builds the sockaddr for `path`; throws SpecError when it doesn't fit
/// sun_path (a hard AF_UNIX limit, typically 108 bytes).
sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw SpecError("socket path '" + path + "' is empty or longer than " +
                    std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

/// One client socket.  The reader thread owns recv; any thread may write
/// (executor progress lines interleave with command replies), serialized
/// by write_mu so lines never shear.  A failed send marks the connection
/// broken — future sends become no-ops and in-flight runs for this client
/// get cancelled at their next checkpoint.
struct Daemon::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// One atomic write unit: concurrent writers (command replies, other
  /// runs' progress lines) can't interleave inside it.  Fault points
  /// simulate a slow consumer (stall), a peer disconnect (drop), and a
  /// torn send (short_write) — the latter two leave the connection broken
  /// exactly like the real failures they stand in for.
  void send_raw(const std::string& bytes) {
    const std::lock_guard<std::mutex> lock(write_mu);
    if (broken.load(std::memory_order_relaxed)) return;
    if (fault::fire("serve.send.stall"))
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    if (fault::fire("serve.send.drop")) {
      broken.store(true, std::memory_order_relaxed);
      shutdown_socket();
      return;
    }
    std::size_t limit = bytes.size();
    if (fault::fire("serve.send.short_write") && limit > 1) limit /= 2;
    std::size_t sent = 0;
    while (sent < limit) {
      const ssize_t n = ::send(fd, bytes.data() + sent, limit - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        broken.store(true, std::memory_order_relaxed);
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (limit < bytes.size()) {
      // Injected short write: line framing on this socket is gone for
      // good, so the connection is broken from here on.
      broken.store(true, std::memory_order_relaxed);
      shutdown_socket();
    }
  }

  /// Wakes a reader blocked in recv (used by stop()).
  void shutdown_socket() { ::shutdown(fd, SHUT_RDWR); }

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> broken{false};
  /// HELLO binding: later RUNs on this connection charge this client's
  /// quota and fairness lane ("" = anonymous).  Only the connection's own
  /// reader thread touches it (HELLO and RUN share that thread).
  std::string client;
};

/// An admitted run: travels from queue_ to an executor; active_ keeps it
/// addressable by id for CANCEL/ATTACH until its DONE line is out, then
/// recent_ keeps it (subscriber-free) for late attachers.
struct Daemon::RunTask {
  std::uint64_t id = 0;
  scenario::ScenarioSpec spec;
  std::string canonical;
  CancelToken cancel = CancelToken::make();
  /// Set by the loop before firing `cancel`, so the terminal DONE
  /// distinguishes deadline_exceeded from a client CANCEL.
  std::atomic<bool> deadline_fired{false};
  std::atomic<bool> started{false};  ///< an executor picked it up
  /// Set by the loop's progress monitor before firing `cancel` (takes
  /// priority over deadline_fired in the terminal decision).
  std::atomic<bool> stalled_fired{false};
  /// Re-enqueued from the journal after a restart: has no submitter, so
  /// an empty subscriber list must not auto-cancel it.
  bool recovered = false;
  std::uint64_t admitted_ns = 0;  ///< queue entry (admission-wait metric)
  std::string client = "anon";    ///< fairness lane / quota identity
  int priority = 1;               ///< shed order under brownout (0-2)
  std::uint64_t cost = 1;         ///< estimated cost units (DRR charge)
  /// Last time this run demonstrated progress (pickup or a checkpoint);
  /// the progress monitor cancels a run whose value goes stale.
  std::atomic<std::uint64_t> last_progress_ns{0};

  /// One stream consumer.  `from` filters live/replayed CHECKPOINTs (an
  /// ATTACH from=<k> resumer already saw seq < k — relevant after a
  /// restart, when a recovered run re-emits its checkpoints from seq 1);
  /// RESULT/DONE/ERROR always go out.
  struct Subscriber {
    std::shared_ptr<Connection> conn;
    std::uint64_t from = 1;
  };
  /// Subscriber/checkpoint state.  Lock order: mu_ may be held when
  /// taking sub_mu, NEVER the reverse.
  std::mutex sub_mu;
  std::vector<Subscriber> subscribers;  ///< cleared at the terminal line
  /// Last kCheckpointRing CHECKPOINT lines by seq, for ATTACH replay.
  std::deque<std::pair<std::uint64_t, std::string>> ring;
  std::uint64_t next_seq = 1;   ///< next checkpoint seq to assign
  std::string terminal_status;  ///< "" until terminal; then ok|...|error
};

Daemon::Metrics::Metrics(obs::Registry& r)
    : runs_ok(r.counter("rdcn_serve_runs_total", "Runs by terminal status",
                        {{"status", "ok"}})),
      runs_cancelled(r.counter("rdcn_serve_runs_total",
                               "Runs by terminal status",
                               {{"status", "cancelled"}})),
      runs_deadline(r.counter("rdcn_serve_runs_total",
                              "Runs by terminal status",
                              {{"status", "deadline_exceeded"}})),
      runs_stalled(r.counter("rdcn_serve_runs_total",
                             "Runs by terminal status",
                             {{"status", "stalled"}})),
      runs_error(r.counter("rdcn_serve_runs_total", "Runs by terminal status",
                           {{"status", "error"}})),
      crashes(r.counter("rdcn_serve_crashes_total",
                        "Executor crashes (non-SpecError escapes)")),
      rejected(r.counter("rdcn_serve_rejected_total",
                         "Submissions refused with REJECT backpressure")),
      shed(r.counter("rdcn_serve_shed_total",
                     "Submissions dropped by brownout load shedding")),
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
      brownout_level(r.gauge("rdcn_serve_brownout_level",
                             "Current load-shedding level (0 = healthy)")),
      admission_wait(r.latency_histogram(
          "rdcn_serve_admission_wait_seconds",
          "Admission-to-executor-pickup queue latency")),
      queue_wait_p0(r.latency_histogram(
          "rdcn_serve_queue_wait_seconds",
          "Admission-to-pickup queue latency by priority",
          {{"priority", "0"}})),
      queue_wait_p1(r.latency_histogram(
          "rdcn_serve_queue_wait_seconds",
          "Admission-to-pickup queue latency by priority",
          {{"priority", "1"}})),
      queue_wait_p2(r.latency_histogram(
          "rdcn_serve_queue_wait_seconds",
          "Admission-to-pickup queue latency by priority",
          {{"priority", "2"}})),
      run_ok(r.latency_histogram("rdcn_serve_run_seconds",
                                 "Executor run latency by terminal status",
                                 {{"status", "ok"}})),
      run_cancelled(r.latency_histogram(
          "rdcn_serve_run_seconds",
          "Executor run latency by terminal status",
          {{"status", "cancelled"}})),
      run_deadline(r.latency_histogram(
          "rdcn_serve_run_seconds",
          "Executor run latency by terminal status",
          {{"status", "deadline_exceeded"}})),
      run_stalled(r.latency_histogram(
          "rdcn_serve_run_seconds",
          "Executor run latency by terminal status",
          {{"status", "stalled"}})),
      run_error(r.latency_histogram("rdcn_serve_run_seconds",
                                    "Executor run latency by terminal status",
                                    {{"status", "error"}})),
      drain_seconds(r.latency_histogram("rdcn_serve_drain_seconds",
                                        "Graceful-drain duration")) {}

Daemon::Daemon(ServeOptions options)
    : options_(std::move(options)),
      m_(obs_),
      cache_(options_.cache_entries, &obs_),
      disk_cache_(options_.disk_cache_dir, &obs_),
      journal_(options_.journal_dir, &obs_),
      queue_(options_.drr_quantum),
      brownout_(options_.queue_limit, options_.max_rss_mb * (1ull << 20)) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  // Fault points configured for this daemon (tests, incident repro); the
  // env hook lets a spawned daemon be armed from outside.
  fault::arm_from_spec(options_.faults);
  fault::arm_from_env();
  // Fault firings count into the process registry; register the serving
  // stack's known points eagerly so a METRICS scrape always exposes the
  // family, zeros included.
  obs::install_fault_observer();
  for (const char* point :
       {"serve.send.short_write", "serve.send.drop", "serve.send.stall",
        "serve.admit.reject", "serve.executor.crash", "serve.executor.stall",
        "serve.disk_cache.torn_write", "serve.disk_cache.write_fail"}) {
    obs::Registry::global().counter(
        "rdcn_fault_fires_total",
        "Fault-injection point firings (common/fault.hpp)",
        {{"point", point}});
  }
  // A serving process is long-lived and observable by design: phase
  // traces are on so --metrics-dump snapshots carry per-phase time.
  obs::set_tracing(true);
  // Quotas resolve once, before any admission: the --quota-* defaults,
  // optionally overridden per client by the quota file.  A negative (or
  // NaN) default or a malformed file fails startup (SpecError) — silently
  // unlimited tenants are worse.
  {
    if (!(options_.quota_rps >= 0) || !(options_.quota_burst >= 0))
      throw SpecError("quota_rps and quota_burst must not be negative");
    QuotaSpec defaults;
    defaults.rps = options_.quota_rps;
    defaults.burst = options_.quota_burst;
    defaults.concurrent = options_.quota_concurrent;
    quotas_ = options_.quota_file.empty()
                  ? QuotaTable(defaults)
                  : QuotaTable::parse_file(options_.quota_file, defaults);
  }
  // Journal recovery runs before the socket goes live: the restored id
  // counter, quarantine streaks, and re-enqueued runs are all in place
  // before the first client can connect (ATTACH by a pre-crash id works
  // immediately).
  const Journal::Recovery recovered = journal_.recover(next_id_);
  next_id_ = recovered.next_id;
  for (const auto& [spec, streak] : recovered.quarantine)
    crash_streaks_[spec] = CrashStreak{streak, monotonic_now_ns()};
  for (const Journal::RecoveredRun& run : recovered.incomplete) {
    auto task = std::make_shared<RunTask>();
    task->id = run.id;
    task->recovered = true;
    task->canonical = run.spec;
    task->client = run.client;
    task->priority = run.priority;
    try {
      task->spec = scenario::ScenarioSpec::parse(run.spec);
      task->spec.threads = options_.threads;
      task->cost = estimate_cost(task->spec.resolved());
    } catch (const std::exception& e) {
      // Journalled by an incompatible build: end the run rather than die.
      std::cerr << "rdcn_serve: journal: dropping unparseable recovered run "
                << run.id << ": " << e.what() << "\n";
      journal_.terminal(run.id, "error");
      continue;
    }
    task->admitted_ns = monotonic_now_ns();
    // Recovered runs re-enter their original fairness lane and re-charge
    // their client's concurrent-run quota, exactly as if freshly admitted.
    client_state_locked(task->client).inflight += 1;
    queue_.push(task->client, task->cost, task);
    m_.queue_depth.add(1);
    active_.emplace(run.id, std::move(task));
    m_.recovered.inc();
  }
  const sockaddr_un addr = make_address(options_.socket_path);
  // Both pipe ends are non-blocking: a writer (the signal handler above
  // all) must never block, and the loop empties the pipe without
  // blocking.  A full pipe already holds a wake-up.
  if (::pipe(wake_pipe_) != 0)
    throw SpecError(std::string("cannot create wake pipe: ") +
                    std::strerror(errno));
  for (const int fd : wake_pipe_) ::fcntl(fd, F_SETFL, O_NONBLOCK);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ >= 0) ::unlink(options_.socket_path.c_str());  // stale
  if (listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
    throw SpecError("cannot listen on '" + options_.socket_path +
                    "': " + why);
  }
  // Non-blocking, so a connection that vanished between poll() and
  // accept() cannot stall the loop.  Accepted sockets stay blocking.
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
  if (options_.handle_signals) {
    g_drain_signalled.store(false, std::memory_order_relaxed);
    g_signal_wake_fd.store(wake_pipe_[1], std::memory_order_relaxed);
    struct sigaction sa {};
    sa.sa_handler = &drain_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, &old_term_);
    ::sigaction(SIGINT, &sa, &old_int_);
  }
  started_ = true;
  loop_thread_ = std::thread(&Daemon::loop, this);
  for (std::size_t i = 0; i < options_.executors; ++i)
    executors_.emplace_back(&Daemon::executor_loop, this);
}

void Daemon::stop() {
  if (!started_ || stopping_.exchange(true)) {
    stopping_ = true;
    cv_shutdown_.notify_all();
    return;
  }
  // With the loop joined nothing accepts any more, so conns_ is final:
  // shutting each socket down wakes its reader.  Cancelling all queued
  // and running work lets the executors drain fast.
  wake_loop();
  loop_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, task] : active_) task->cancel.request_cancel();
    for (auto& conn : conns_) conn->shutdown_socket();
  }
  cv_exec_.notify_all();
  for (std::thread& t : conn_threads_) t.join();
  for (std::thread& t : executors_) t.join();
  if (options_.handle_signals) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    ::sigaction(SIGINT, &old_int_, nullptr);
  }
  for (int& fd : wake_pipe_) {
    ::close(fd);
    fd = -1;
  }
  journal_.flush();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  // The final snapshot, so runs shorter than one dump period still show.
  if (!options_.metrics_dump_path.empty()) write_metrics_dump();
  cv_shutdown_.notify_all();
}

void Daemon::wake_loop() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Daemon::wait_for_shutdown_command() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_shutdown_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

Daemon::ClientState& Daemon::client_state_locked(const std::string& client) {
  const auto it = clients_.find(client);
  if (it != clients_.end()) return it->second;
  const QuotaSpec& quota = quotas_.lookup(client);
  return clients_
      .emplace(client,
               ClientState{
                   TokenBucket(quota.rps, quota.effective_burst()),
                   0,
                   obs_.counter("rdcn_serve_client_admitted_total",
                                "Admitted runs by client",
                                {{"client", client}}),
                   obs_.counter("rdcn_serve_client_rejected_total",
                                "REJECTed submissions by client "
                                "(queue_full + quota)",
                                {{"client", client}}),
                   obs_.counter("rdcn_serve_client_shed_total",
                                "Brownout-shed submissions by client",
                                {{"client", client}}),
               })
      .first->second;
}

int Daemon::update_brownout_locked() {
  const std::uint64_t now_ns = monotonic_now_ns();
  if (options_.max_rss_mb > 0 &&
      (rss_sampled_ns_ == 0 || now_ns - rss_sampled_ns_ > 100'000'000ull)) {
    rss_bytes_ = read_rss_bytes();
    rss_sampled_ns_ = now_ns;
  }
  const int level = brownout_.update(queue_.size(), rss_bytes_);
  m_.brownout_level.set(static_cast<double>(level));
  return level;
}

std::uint32_t Daemon::reject_retry_ms_locked() const {
  return drain_est_.retry_ms(queue_.size(),
                             std::max<std::size_t>(1, options_.executors),
                             options_.retry_hint_ms);
}

StatsReport Daemon::stats_report() const {
  // Every field reads the metrics registry — the counters the executors
  // bump are the counters STATS reports; nothing here can drift.  mu_ is
  // taken so a client that read DONE sees its run counted (terminal
  // bumps happen under mu_ before the DONE line goes out).
  StatsReport r;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    r.active = static_cast<std::size_t>(m_.active_runs.value());
    r.queued = static_cast<std::size_t>(m_.queue_depth.value());
    r.completed = m_.runs_ok.value();
    r.cancelled = m_.runs_cancelled.value();
    r.deadline_exceeded = m_.runs_deadline.value();
    r.crashed = m_.crashes.value();
    r.rejected = m_.rejected.value();
    r.quarantined = m_.quarantined.value();
    r.recovered = m_.recovered.value();
    r.attached = m_.attach_total.value();
    r.shed = m_.shed.value();
    r.stalled = m_.runs_stalled.value();
    r.brownout = static_cast<std::size_t>(brownout_.level());
    r.clients = clients_.size();
  }
  const ResultsCache::Stats cache = cache_.stats();
  r.cache_hits = cache.hits;
  r.cache_misses = cache.misses;
  r.cache_entries = cache.entries;
  const DiskCache::Stats disk = disk_cache_.stats();
  r.disk_hits = disk.hits;
  r.disk_corrupt = disk.corrupt_skipped;
  return r;
}

std::string Daemon::metrics_text() const {
  return obs_.render_prometheus() +
         obs::Registry::global().render_prometheus();
}

void Daemon::write_metrics_dump() const {
  const std::string temp = options_.metrics_dump_path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    out << "{\"serve\":" << obs_.render_json()
        << ",\"process\":" << obs::Registry::global().render_json()
        << ",\"trace\":" << obs::trace_json() << "}\n";
    if (!out) {
      std::cerr << "rdcn_serve: cannot write metrics dump " << temp << "\n";
      return;
    }
  }
  if (std::rename(temp.c_str(), options_.metrics_dump_path.c_str()) != 0)
    std::cerr << "rdcn_serve: cannot commit metrics dump "
              << options_.metrics_dump_path << "\n";
}

void Daemon::begin_drain_locked() {
  if (draining_) return;  // one drain per lifetime
  draining_ = true;
  drain_begin_ = monotonic_now();
}

void Daemon::loop() {
  using std::chrono::milliseconds;
  // The progress monitor and the brownout re-evaluation share one tick,
  // armed only when one of them is configured; without it the level is
  // re-evaluated at admissions and executor pickups alone.
  const bool progress = options_.progress_timeout_ms > 0;
  const bool ticking = progress || options_.max_rss_mb > 0;
  const milliseconds tick(
      progress ? std::clamp<std::uint64_t>(options_.progress_timeout_ms / 4,
                                           10, 1000)
               : 250);
  const bool dumping = !options_.metrics_dump_path.empty();
  const milliseconds dump_period(
      std::max<std::uint64_t>(1, options_.metrics_dump_ms));
  // A drain spends its budget waiting for in-flight runs, then cancels
  // the stragglers and gives them this much more: a wedged run (or
  // executors=0) must not hold the shutdown hostage forever.
  const milliseconds straggler_grace(1000);
  auto next_tick = monotonic_now() + tick;
  auto next_dump = monotonic_now() + dump_period;
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
  int timeout_ms = 0;
  while (true) {
    const int ready = ::poll(fds, 2, timeout_ms);  // EINTR re-evaluates
    char bytes[64];
    while (::read(wake_pipe_[0], bytes, sizeof(bytes)) > 0) {
    }
    if (stopping_) return;
    if (ready > 0 && (fds[0].revents & POLLIN)) accept_connection();
    const auto now = monotonic_now();
    if (dumping && now >= next_dump) {
      next_dump = now + dump_period;
      write_metrics_dump();  // rendering takes registry mutexes, not mu_
    }
    // Run what is due, then sleep until the earliest timer, a connection,
    // or a wake-up.
    auto wake_at = dumping ? next_dump : MonotonicClock::time_point::max();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (options_.handle_signals && g_drain_signalled.exchange(false))
        begin_drain_locked();
      reap_finished_readers_locked();
      while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
        if (const std::shared_ptr<RunTask> task =
                deadlines_.begin()->second.lock()) {
          // Mark before firing so the executor's CancelledError handler
          // reads the right reason.  Firing after completion is harmless
          // — the token is dead weight once DONE is out.
          task->deadline_fired.store(true, std::memory_order_release);
          task->cancel.request_cancel();
        }
        deadlines_.erase(deadlines_.begin());
      }
      if (!deadlines_.empty())
        wake_at = std::min(wake_at, deadlines_.begin()->first);
      if (ticking && now >= next_tick) {
        next_tick = now + tick;
        update_brownout_locked();
        const std::uint64_t budget_ns =
            options_.progress_timeout_ms * 1'000'000ull;
        const std::uint64_t now_ns = monotonic_now_ns();
        for (auto& [id, task] : active_) {
          const std::uint64_t last =
              task->last_progress_ns.load(std::memory_order_relaxed);
          if (!progress || !task->started.load(std::memory_order_acquire) ||
              last == 0 || now_ns - last <= budget_ns)
            continue;
          // Mark-then-fire, like the deadline path.  exchange() makes the
          // stall fire once even if the run lingers across several ticks.
          if (!task->stalled_fired.exchange(true, std::memory_order_acq_rel))
            task->cancel.request_cancel();
        }
      }
      if (draining_ && !shutdown_requested_) {
        const auto budget_end = drain_begin_ + milliseconds(options_.drain_ms);
        if (active_.empty() || now >= budget_end + straggler_grace) {
          journal_.flush();
          m_.drain_seconds.observe_seconds(
              std::chrono::duration<double>(now - drain_begin_).count());
          shutdown_requested_ = true;
          cv_shutdown_.notify_all();
        } else if (now >= budget_end) {
          for (auto& [id, task] : active_) task->cancel.request_cancel();
          wake_at = std::min(wake_at, budget_end + straggler_grace);
        } else {
          wake_at = std::min(wake_at, budget_end);
        }
      }
    }
    if (ticking) wake_at = std::min(wake_at, next_tick);
    timeout_ms = -1;  // capped at a minute below, so any period fits an int
    if (wake_at != MonotonicClock::time_point::max())
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          std::chrono::ceil<milliseconds>(wake_at - monotonic_now()).count(),
          0, 60'000));
  }
}

void Daemon::accept_connection() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;  // the peer gave up first; poll() reports the next
  auto conn = std::make_shared<Connection>(fd);
  const std::lock_guard<std::mutex> lock(mu_);
  conns_.push_back(conn);
  // The reader drops its own reference before it exits, so the client's
  // fd closes as soon as the last in-flight run lets go — not when the
  // loop joins the thread.
  conn_threads_.emplace_back([this, c = std::move(conn)]() mutable {
    const std::shared_ptr<Connection> local = std::move(c);
    connection_loop(local);
  });
}

void Daemon::connection_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // the client left, or stop() shut the socket
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while (open && (pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) open = handle_command(conn, line);
    }
    if (open && buffer.size() > kMaxLineBytes) {
      // A newline-free stream past the cap: refuse and hang up rather
      // than buffering without limit.
      conn->send_line(msg_error("reason=line_too_long limit_bytes=" +
                                std::to_string(kMaxLineBytes)));
      break;
    }
  }
  conn->broken.store(true, std::memory_order_relaxed);
  conn->shutdown_socket();
  // Unsubscribe this client everywhere, drop the daemon's reference to
  // the connection (the fd closes once the last in-flight task lets go),
  // and queue this thread for reaping so a long-lived daemon doesn't
  // accumulate dead readers.  A run left subscriber-less is cancelled to
  // free its executor — unless a journal is armed (the run is durable and
  // re-attachable: it finishes and its result lands in the caches) or the
  // run was recovered (it never had a submitter to lose).
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, task] : active_) {
    const std::lock_guard<std::mutex> sub_lock(task->sub_mu);
    std::erase_if(task->subscribers,
                  [&](const RunTask::Subscriber& s) { return s.conn == conn; });
    if (task->subscribers.empty() && !task->recovered && !journal_.enabled())
      task->cancel.request_cancel();
  }
  std::erase(conns_, conn);
  finished_readers_.push_back(std::this_thread::get_id());
  wake_loop();
}

void Daemon::reap_finished_readers_locked() {
  for (const std::thread::id id : finished_readers_) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() != id) continue;
      it->join();  // the thread already reached its final statement
      conn_threads_.erase(it);
      break;
    }
  }
  finished_readers_.clear();
}

bool Daemon::handle_command(const std::shared_ptr<Connection>& conn,
                            const std::string& line) {
  const Command cmd = parse_command(line);
  switch (cmd.kind) {
    case Command::Kind::kPing:
      conn->send_line(msg_pong());
      return true;
    case Command::Kind::kHello:
      // Rebinding mid-connection is allowed (a proxy serving several
      // tenants reuses one socket); only later RUNs are affected.
      conn->client = cmd.client;
      conn->send_line(msg_welcome(cmd.client));
      return true;
    case Command::Kind::kReset: {
      // Operator verb: clear quarantine/crash-streak state without a
      // restart.  Journalled (streak 0) so a crash right after the RESET
      // doesn't resurrect the streaks.
      std::size_t cleared = 0;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (cmd.all) {
          cleared = crash_streaks_.size();
          for (const auto& [spec, streak] : crash_streaks_)
            journal_.quarantine_streak(spec, 0);
          crash_streaks_.clear();
        } else {
          const auto it = crash_streaks_.find(cmd.spec);
          if (it != crash_streaks_.end()) {
            journal_.quarantine_streak(it->first, 0);
            crash_streaks_.erase(it);
            cleared = 1;
          }
        }
      }
      conn->send_line(msg_resetok(cleared));
      return true;
    }
    case Command::Kind::kRun:
      handle_run(conn, cmd);
      return true;
    case Command::Kind::kCancel: {
      CancelToken token;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = active_.find(cmd.id);
        if (it != active_.end()) token = it->second->cancel;
      }
      if (!token.cancellable()) {
        conn->send_line(msg_error("no queued or running run with id " +
                                  std::to_string(cmd.id)));
      } else {
        // Ack BEFORE firing the token: the executor's DONE is a
        // consequence of the cancel, so sending the ack first keeps
        // CANCELLING-before-DONE ordering on the wire (collect() consumes
        // the ack; a DONE that overtook it would leave the ack behind to
        // poison the next command's reply).
        conn->send_line(msg_cancelling(cmd.id));
        token.request_cancel();
      }
      return true;
    }
    case Command::Kind::kAttach:
      handle_attach(conn, cmd);
      return true;
    case Command::Kind::kStats:
      conn->send_line(msg_stats(stats_report()));
      return true;
    case Command::Kind::kMetrics: {
      // Header + exposition travel as one write unit (like RESULT) so no
      // other run's lines can land inside the payload.
      const std::string text = metrics_text();
      std::size_t lines = 0;
      for (const char c : text)
        if (c == '\n') ++lines;
      conn->send_raw(msg_metrics(lines) + "\n" + text);
      return true;
    }
    case Command::Kind::kShutdown: {
      // BYE goes out under mu_: a client that read it finds admissions
      // already refused, and the owner cannot stop() (closing this socket)
      // before it is written.
      const std::lock_guard<std::mutex> lock(mu_);
      if (cmd.drain) {
        // Graceful: the loop flips shutdown_requested_ once in-flight runs
        // finished (or the drain budget expired).
        begin_drain_locked();
        wake_loop();
      } else {
        shutdown_requested_ = true;
        cv_shutdown_.notify_all();
      }
      conn->send_line(msg_bye());
      return false;
    }
    case Command::Kind::kInvalid:
      conn->send_line(msg_error(cmd.error));
      return true;
  }
  return true;
}

void Daemon::handle_run(const std::shared_ptr<Connection>& conn,
                        const Command& cmd) {
  scenario::ScenarioSpec spec;
  std::string canonical;
  std::uint64_t cost = 1;
  try {
    spec = scenario::ScenarioSpec::parse(cmd.spec);
    const scenario::ScenarioSpec resolved = spec.resolved();
    scenario::TopologyRegistry::instance().validate(resolved.topology);
    scenario::WorkloadRegistry::instance().validate(resolved.workload);
    for (const Spec& algorithm : resolved.algorithms)
      scenario::AlgorithmRegistry::instance().validate(algorithm);
    scenario::check_run_shape(resolved);
    spec.threads = options_.threads;  // execution detail, daemon's choice
    canonical = spec.canonical_string();
    cost = estimate_cost(resolved);
  } catch (const std::exception& e) {
    conn->send_line(msg_error(e.what()));
    return;
  }
  // RUN client= (a proxy submitting for a tenant) overrides the
  // connection's HELLO binding; neither means the anonymous pool.
  const std::string client = !cmd.client.empty()   ? cmd.client
                             : !conn->client.empty() ? conn->client
                                                     : "anon";

  // Quarantine: a spec that keeps crashing executors is fast-failed at
  // admission instead of being given another executor to wedge.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // A draining daemon finishes what it has; new work belongs to the
      // next instance.
      conn->send_line(msg_error("reason=draining daemon is shutting down"));
      return;
    }
    const auto it = crash_streaks_.find(canonical);
    if (options_.quarantine_threshold > 0 && it != crash_streaks_.end()) {
      // TTL aging: a streak untouched for quarantine_ttl_s no longer
      // predicts anything — drop it (journalled) and give the spec a
      // fresh chance.
      if (options_.quarantine_ttl_s > 0 &&
          monotonic_now_ns() - it->second.touched_ns >
              options_.quarantine_ttl_s * 1'000'000'000ull) {
        journal_.quarantine_streak(it->first, 0);
        crash_streaks_.erase(it);
      } else if (it->second.count >= options_.quarantine_threshold) {
        m_.quarantined.inc();
        conn->send_line(msg_error(
            "reason=quarantined consecutive_failures=" +
            std::to_string(it->second.count) +
            " spec is quarantined after repeated executor crashes"));
        return;
      }
    }
  }

  // Injected admission failure: exercises the client's REJECT/backoff
  // path without actually filling the queue.
  if (fault::fire("serve.admit.reject")) {
    std::uint32_t retry = options_.retry_hint_ms;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.rejected.inc();
      client_state_locked(client).rejected.inc();
      retry = reject_retry_ms_locked();
    }
    conn->send_line(msg_reject(retry));
    return;
  }

  std::uint64_t id;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }

  // A cache hit bypasses admission entirely — replaying stored bytes is
  // cheap, so cached runs are never rejected for backpressure.
  if (const std::optional<std::string> payload = lookup_result(canonical)) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.runs_ok.inc();
    }
    conn->send_line(msg_accepted(id));
    send_payload(*conn, id, /*cached=*/true, *payload);
    conn->send_line(msg_done(id, "ok"));
    return;
  }

  auto task = std::make_shared<RunTask>();
  task->id = id;
  task->spec = std::move(spec);
  task->canonical = std::move(canonical);
  task->client = client;
  task->priority = cmd.priority;
  task->cost = cost;
  task->subscribers.push_back({conn, /*from=*/1});  // unpublished: no lock
  {
    // ACCEPTED goes out under mu_ so no executor can emit this run's
    // CHECKPOINT lines first (they'd need the queue entry, which doesn't
    // exist yet).  The write is a few bytes to a local socket.
    const std::lock_guard<std::mutex> lock(mu_);
    ClientState& cs = client_state_locked(client);
    if (queue_.size() >= options_.queue_limit) {
      m_.rejected.inc();
      cs.rejected.inc();
      conn->send_line(msg_reject(reject_retry_ms_locked()));
      return;
    }
    // Per-client caps next: the concurrent-run quota (queued + running
    // charged at admission, released at the terminal) and the admission
    // token bucket.  Both refuse with reason=quota and an honest hint —
    // the drain rate for a full pipeline, the refill time for an empty
    // bucket.
    const QuotaSpec& quota = quotas_.lookup(client);
    if (quota.concurrent > 0 && cs.inflight >= quota.concurrent) {
      m_.rejected.inc();
      cs.rejected.inc();
      conn->send_line(msg_reject(reject_retry_ms_locked(), "quota"));
      return;
    }
    std::uint32_t bucket_retry = 0;
    if (!cs.bucket.try_take(monotonic_now_ns(), &bucket_retry)) {
      m_.rejected.inc();
      cs.rejected.inc();
      conn->send_line(msg_reject(bucket_retry, "quota"));
      return;
    }
    // Brownout shedding: under pressure, low-priority (and optionally
    // high-cost) submissions are dropped before the queue bound has to
    // refuse everyone.  The hint scales with the level — the hotter the
    // daemon, the longer clients should stay away.
    const int level = update_brownout_locked();
    if (level > 0 &&
        (task->priority < level ||
         (options_.shed_cost_limit > 0 && cost > options_.shed_cost_limit &&
          task->priority < 2))) {
      m_.shed.inc();
      cs.shed.inc();
      conn->send_line(msg_reject(
          reject_retry_ms_locked() * static_cast<std::uint32_t>(level + 1),
          "shed"));
      return;
    }
    // Journalled before ACCEPTED: an id the client saw is an id a
    // restarted daemon remembers.
    journal_.admitted(id, task->canonical, task->client, task->priority);
    conn->send_line(msg_accepted(id));
    cs.inflight += 1;
    cs.admitted.inc();
    task->admitted_ns = monotonic_now_ns();
    queue_.push(task->client, task->cost, task);
    m_.queue_depth.add(1);
    // Deadline counts from admission: queue wait is the daemon's problem,
    // not the client's.
    if (cmd.deadline_ms > 0)
      deadlines_.emplace(
          monotonic_now() + std::chrono::milliseconds(cmd.deadline_ms), task);
    active_.emplace(id, std::move(task));
  }
  cv_exec_.notify_one();
  if (cmd.deadline_ms > 0) wake_loop();  // it may be the earliest timer
}

void Daemon::handle_attach(const std::shared_ptr<Connection>& conn,
                           const Command& cmd) {
  std::shared_ptr<RunTask> task;
  std::string status;  ///< terminal status; "" while the run is live
  std::uint64_t last_seq = 0;
  std::vector<std::string> replay;
  bool live = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = active_.find(cmd.id);
    if (it != active_.end()) {
      task = it->second;
    } else {
      for (const auto& t : recent_)
        if (t->id == cmd.id) {
          task = t;
          break;
        }
    }
    if (task) {
      const std::lock_guard<std::mutex> sub_lock(task->sub_mu);
      status = task->terminal_status;
      last_seq = task->next_seq - 1;
      for (const auto& [seq, line] : task->ring)
        if (seq >= cmd.from) replay.push_back(line);
      if (status.empty()) {
        // Live run: ATTACHED + ring replay + subscription happen under
        // sub_mu so no concurrent checkpoint can interleave or be missed
        // between the replay and the live stream.
        live = true;
        m_.attach_total.inc();
        conn->send_line(msg_attached(
            cmd.id,
            task->started.load(std::memory_order_acquire) ? "running"
                                                          : "queued",
            last_seq));
        for (const std::string& line : replay) conn->send_line(line);
        task->subscribers.push_back({conn, cmd.from});
      }
    }
  }
  if (!task) {
    conn->send_line(
        msg_error("reason=unknown_run id=" + std::to_string(cmd.id)));
    return;
  }
  if (live) return;
  // Terminal run: its ring and status are immutable now (subscribers were
  // cleared at DONE), so the whole outcome replays from here — for ok
  // runs the payload comes from the caches.
  std::optional<std::string> payload;
  if (status == "ok") {
    payload = lookup_result(task->canonical);
    if (!payload) {
      // Evicted everywhere: pretend the run is forgotten so the client
      // falls back to resubmitting (better than an ok with no bytes).
      conn->send_line(
          msg_error("reason=unknown_run id=" + std::to_string(cmd.id)));
      return;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    m_.attach_total.inc();
  }
  conn->send_line(msg_attached(cmd.id, "done", last_seq));
  for (const std::string& line : replay) conn->send_line(line);
  if (payload) send_payload(*conn, cmd.id, /*cached=*/true, *payload);
  conn->send_line(msg_done(cmd.id, status));
}

void Daemon::executor_loop() {
  while (true) {
    std::shared_ptr<RunTask> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_exec_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      queue_.pop(&task);  // DRR order: the fairest backlogged lane's head
      m_.queue_depth.add(-1);
      m_.active_runs.add(1);
      update_brownout_locked();  // the queue only ever shrinks here
    }
    task->last_progress_ns.store(monotonic_now_ns(),
                                 std::memory_order_relaxed);
    task->started.store(true, std::memory_order_release);
    const std::uint64_t wait_ns = monotonic_now_ns() - task->admitted_ns;
    m_.admission_wait.observe_ns(wait_ns);
    (task->priority == 0   ? m_.queue_wait_p0
     : task->priority == 1 ? m_.queue_wait_p1
                           : m_.queue_wait_p2)
        .observe_ns(wait_ns);
    const std::uint64_t exec_begin_ns = monotonic_now_ns();
    execute(task);
    const std::uint64_t exec_ns = monotonic_now_ns() - exec_begin_ns;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.active_runs.add(-1);
      // Release the client's concurrent-run charge; this thread wrote
      // terminal_status in execute(), so reading it lock-free is safe.
      const auto cs = clients_.find(task->client);
      if (cs != clients_.end() && cs->second.inflight > 0)
        cs->second.inflight -= 1;
      // Only full executions inform the drain estimate — a run cancelled
      // (or shed) in milliseconds says nothing about how long a queue
      // slot takes to free under load.
      if (task->terminal_status == "ok" || task->terminal_status == "error")
        drain_est_.observe_run_ns(exec_ns);
      active_.erase(task->id);
      recent_.push_back(task);
      if (recent_.size() > kRecentRuns) recent_.pop_front();
    }
    wake_loop();  // a drain may be waiting for active_ to empty
  }
}

void Daemon::execute(const std::shared_ptr<RunTask>& task) {
  const std::uint64_t start_ns = monotonic_now_ns();
  // The run's single terminal transition.  Order matters: outcome
  // counters were already bumped under mu_ (a client that reads DONE and
  // immediately asks STATS must see its run counted) and the journal's
  // terminal record is fsync'd BEFORE any wire byte — a DONE a client saw
  // is a DONE a restarted daemon remembers.  Then, under sub_mu, the
  // final lines go to every subscriber and the subscriber list is
  // dropped: a finished task must not keep client fds open, and ATTACH
  // observes terminal_status to replay the outcome instead of joining.
  const auto finish = [&](const std::string& status,
                          const std::string* error_line,
                          const std::string* payload, bool cached) {
    journal_.terminal(task->id, status);
    const std::lock_guard<std::mutex> sub_lock(task->sub_mu);
    task->terminal_status = status;
    for (const auto& sub : task->subscribers) {
      if (error_line != nullptr) sub.conn->send_line(*error_line);
      if (payload != nullptr) send_payload(*sub.conn, task->id, cached,
                                           *payload);
      sub.conn->send_line(msg_done(task->id, status));
    }
    task->subscribers.clear();
  };
  // Ends the run with DONE status stalled/deadline_exceeded/cancelled,
  // whichever the token firing meant.  A stall (the progress watchdog
  // fired) also extends the spec's crash streak: a spec that reliably
  // wedges executors is as dangerous as one that crashes them.
  const auto finish_cancelled = [&] {
    const bool stalled = task->stalled_fired.load(std::memory_order_acquire);
    const bool deadline =
        !stalled && task->deadline_fired.load(std::memory_order_acquire);
    std::size_t streak = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stalled) {
        m_.runs_stalled.inc();
        CrashStreak& s = crash_streaks_[task->canonical];
        streak = ++s.count;
        s.touched_ns = monotonic_now_ns();
        if (options_.quarantine_threshold > 0 &&
            streak == options_.quarantine_threshold)
          std::cerr << "rdcn_serve: quarantining spec after " << streak
                    << " consecutive failures: " << task->canonical << "\n";
      } else if (deadline) {
        m_.runs_deadline.inc();
      } else {
        m_.runs_cancelled.inc();
      }
    }
    if (stalled) journal_.quarantine_streak(task->canonical, streak);
    (stalled    ? m_.run_stalled
     : deadline ? m_.run_deadline
                : m_.run_cancelled)
        .observe_ns(monotonic_now_ns() - start_ns);
    finish(stalled    ? "stalled"
           : deadline ? "deadline_exceeded"
                      : "cancelled",
           nullptr, nullptr, false);
  };
  // Non-SpecError escaped the run (a bug, or an injected crash): report,
  // count, and extend the spec's crash streak — the executor survives.
  const auto finish_crashed = [&](const std::string& what) {
    std::size_t streak = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.crashes.inc();
      m_.runs_error.inc();
      CrashStreak& s = crash_streaks_[task->canonical];
      streak = ++s.count;
      s.touched_ns = monotonic_now_ns();
      if (options_.quarantine_threshold > 0 &&
          streak == options_.quarantine_threshold)
        std::cerr << "rdcn_serve: quarantining spec after " << streak
                  << " consecutive crashes: " << task->canonical << "\n";
    }
    journal_.quarantine_streak(task->canonical, streak);
    m_.run_error.observe_ns(monotonic_now_ns() - start_ns);
    const std::string error_line = msg_error("internal=" + what);
    finish("error", &error_line, nullptr, false);
  };
  const auto finish_ok = [&](const std::string& payload, bool cached) {
    bool streak_cleared = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.runs_ok.inc();
      streak_cleared = crash_streaks_.erase(task->canonical) > 0;
    }
    if (streak_cleared) journal_.quarantine_streak(task->canonical, 0);
    m_.run_ok.observe_ns(monotonic_now_ns() - start_ns);
    finish("ok", nullptr, &payload, cached);
  };

  if (task->cancel.cancelled()) {  // cancelled while still queued
    finish_cancelled();
    return;
  }
  if (task->recovered) {
    // The pre-crash run may have finished with its terminal record lost
    // (the caches commit before the journal's fsync'd done record);
    // serve the stored bytes instead of recomputing.
    if (const std::optional<std::string> payload =
            lookup_result(task->canonical)) {
      finish_ok(*payload, /*cached=*/true);
      return;
    }
  }
  scenario::RunHooks hooks;
  hooks.cancel = task->cancel;
  const bool durable = journal_.enabled();
  hooks.on_checkpoint = [task, durable](const std::string& label,
                                        std::uint64_t seed,
                                        const sim::Checkpoint& checkpoint) {
    task->last_progress_ns.store(monotonic_now_ns(),
                                 std::memory_order_relaxed);
    const std::lock_guard<std::mutex> sub_lock(task->sub_mu);
    const std::uint64_t seq = task->next_seq++;
    std::string line = msg_checkpoint(task->id, seq, label, seed, checkpoint);
    for (const auto& sub : task->subscribers)
      if (seq >= sub.from) sub.conn->send_line(line);
    std::erase_if(task->subscribers, [](const RunTask::Subscriber& s) {
      return s.conn->broken.load(std::memory_order_relaxed);
    });
    task->ring.emplace_back(seq, std::move(line));
    if (task->ring.size() > kCheckpointRing) task->ring.pop_front();
    // Nobody is listening: without a journal the run's output has no
    // future, so stop burning CPU; with one the run is re-attachable
    // and its result durable — let it finish.
    if (task->subscribers.empty() && !task->recovered && !durable)
      task->cancel.request_cancel();
  };
  try {
    if (fault::fire("serve.executor.crash"))
      throw std::runtime_error("injected executor crash");
    if (fault::fire("serve.executor.stall")) {
      // Simulated wedge: no checkpoints ever come, so only the progress
      // watchdog (or a CANCEL/deadline) can end this run.  The wait is
      // cooperative — the executor thread itself never deadlocks.
      while (!task->cancel.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      throw CancelledError("stalled run cancelled");
    }
    const scenario::ScenarioResult result =
        scenario::run_scenario(task->spec, hooks);
    std::ostringstream csv;
    sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
    const std::string payload = csv.str();
    cache_.put(task->canonical, payload);
    disk_cache_.put(task->canonical, payload);
    finish_ok(payload, /*cached=*/false);
  } catch (const CancelledError&) {
    finish_cancelled();
  } catch (const SpecError& e) {
    // A spec problem the admission-time validators couldn't see — a
    // refusal, not a crash: no streak, no quarantine.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      m_.runs_error.inc();
    }
    m_.run_error.observe_ns(monotonic_now_ns() - start_ns);
    const std::string error_line = msg_error(e.what());
    finish("error", &error_line, nullptr, false);
  } catch (const std::exception& e) {
    finish_crashed(e.what());
  } catch (...) {
    finish_crashed("unknown exception");
  }
}

std::optional<std::string> Daemon::lookup_result(
    const std::string& canonical) {
  std::optional<std::string> payload = cache_.get(canonical);
  if (!payload) {
    payload = disk_cache_.get(canonical);
    if (payload) cache_.put(canonical, *payload);
  }
  return payload;
}

void Daemon::send_payload(Connection& conn, std::uint64_t id, bool cached,
                          const std::string& payload) {
  std::size_t lines = 0;
  for (const char c : payload)
    if (c == '\n') ++lines;
  // Header and payload travel as one write unit so no other run's lines
  // can land between them; the payload is already newline-framed CSV and
  // ships verbatim, bit-identical to a direct rdcn_sim --csv run.
  conn.send_raw(msg_result(id, cached, lines) + "\n" + payload);
}

}  // namespace rdcn::serve
