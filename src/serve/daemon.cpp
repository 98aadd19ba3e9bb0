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
#include <optional>
#include <sstream>
#include <utility>

#include "common/cancel.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "sim/report.hpp"

namespace rdcn::serve {

namespace {

/// Reader-side line cap: a client streaming bytes without a newline is
/// malformed (or malicious); past this the connection is refused instead
/// of growing the buffer without bound.
constexpr std::size_t kMaxLineBytes = 1u << 20;

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

/// One client socket; its reader thread owns recv.  post() appends a whole
/// write unit to the pending bytes (also under mu_, which fixes their
/// order); flush() takes everything pending and sends it in one write,
/// without mu_, serialized by write_mu so units never shear.  Every post
/// is followed by its poster's flush.  A failed send breaks the
/// connection and shuts it down, which ends its reader.
struct Daemon::Connection {
  Connection(int fd_in, ConnId id_in) : fd(fd_in), id(id_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void post(std::string bytes) {
    const std::lock_guard<std::mutex> lock(pending_mu);
    if (pending.empty())
      pending = std::move(bytes);
    else
      pending += bytes;
  }

  void flush() {
    const std::lock_guard<std::mutex> lock(write_mu);
    std::string bytes;
    {
      const std::lock_guard<std::mutex> pending_lock(pending_mu);
      bytes.swap(pending);
    }
    if (!bytes.empty()) send_unit(bytes);
  }

  void send_line(const std::string& line) {
    post(line + "\n");
    flush();
  }

  /// One write; caller holds write_mu.  Fault points simulate a slow
  /// consumer (stall), a peer disconnect (drop) and a torn send
  /// (short_write), the last two breaking the connection like real ones.
  void send_unit(const std::string& bytes) {
    if (broken.load(std::memory_order_relaxed)) return;
    if (fault::fire("serve.send.stall"))
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    std::size_t limit = bytes.size();
    if (fault::fire("serve.send.drop"))
      limit = 0;
    else if (fault::fire("serve.send.short_write") && limit > 1)
      limit /= 2;
    std::size_t sent = 0;
    while (sent < limit) {
      const ssize_t n = ::send(fd, bytes.data() + sent, limit - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    if (sent < bytes.size()) {
      // Line framing on this socket is gone for good.
      broken.store(true, std::memory_order_relaxed);
      shutdown_socket();
    }
  }

  /// Wakes a reader blocked in recv.
  void shutdown_socket() { ::shutdown(fd, SHUT_RDWR); }

  const int fd;
  const ConnId id;
  std::mutex pending_mu;  ///< guards pending; taken under mu_, never around it
  std::string pending;
  std::mutex write_mu;  ///< held across sends; never taken around mu_
  std::atomic<bool> broken{false};
};

Daemon::Daemon(ServeOptions options)
    : options_(std::move(options)),
      lifecycle_(options_, obs_),
      cache_(options_.cache_entries, options_.disk_cache_dir, obs_),
      journal_(options_.journal_dir, obs_) {}

Daemon::~Daemon() { stop(); }

template <typename Call>
void Daemon::step(Call&& call) {
  Lifecycle::Outbox out;
  std::vector<std::shared_ptr<Connection>> touched;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    call(out);
    for (const std::string& record : out.records) journal_.append(record);
    // A DONE is backed by an fsync'd terminal record before any thread
    // can send it: its line is not posted until the fsync returns.
    if (out.terminal) journal_.flush();
    for (auto& [id, bytes] : out.lines) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // the connection left
      it->second->post(std::move(bytes));
      touched.push_back(it->second);  // a second flush finds nothing left
    }
  }
  for (const std::shared_ptr<Connection>& conn : touched) conn->flush();
}

void Daemon::start() {
  fault::arm_from_spec(options_.faults);
  fault::arm_from_env();
  // Fault firings count into the process registry; the serving stack's
  // points register eagerly so METRICS always shows the family.
  obs::install_fault_observer();
  for (const char* point :
       {"serve.send.short_write", "serve.send.drop", "serve.send.stall",
        "serve.admit.reject", "serve.executor.crash", "serve.executor.stall",
        "serve.disk_cache.torn_write", "serve.disk_cache.write_fail",
        "serve.journal.stall"}) {
    obs::Registry::global().counter(
        "rdcn_fault_fires_total",
        "Fault-injection point firings (common/fault.hpp)",
        {{"point", point}});
  }
  // Phase traces are on so --metrics-dump snapshots carry per-phase time.
  obs::set_tracing(true);
  // Recovery precedes the socket: ATTACH by a pre-crash id works at once.
  const Journal::Recovery recovery = journal_.recover();
  const Lifecycle::SpecCheck parses = [](const Journal::RecoveredRun& run) {
    try {
      // A spec that parses, naming algorithms this build registers.
      const scenario::ScenarioSpec spec =
          scenario::ScenarioSpec::parse(run.spec).resolved();
      for (const Spec& algorithm : spec.algorithms)
        scenario::AlgorithmRegistry::instance().at(algorithm.name);
      return true;
    } catch (const std::exception& e) {
      // Journalled by an incompatible build: end the run, not die.
      std::cerr << "rdcn_serve: journal: dropping unparseable recovered run "
                << run.id << ": " << e.what() << "\n";
      return false;
    }
  };
  step([&](Lifecycle::Outbox& out) {
    lifecycle_.restore(recovery, monotonic_now_ns(), parses, out);
  });
  const sockaddr_un addr = make_address(options_.socket_path);
  // Both pipe ends are non-blocking: a writer (the signal handler above
  // all) must never block; a full pipe already holds a wake-up.
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
  // shutting each socket down wakes its reader.  Running runs are told to
  // end; the executors then return instead of taking queued ones.
  wake_loop();
  loop_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lifecycle_.stop();
    for (const auto& [id, conn] : conns_) conn->shutdown_socket();
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

StatsReport Daemon::stats_report() const {
  // Under mu_: a client that read DONE sees its run counted.
  StatsReport r;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lifecycle_.stats(r);
  }
  const ResultsCache::Stats cache = cache_.stats();
  r.cache_hits = cache.hits;
  r.cache_misses = cache.misses;
  r.cache_entries = cache.entries;
  r.disk_hits = cache.disk_hits;
  r.disk_corrupt = cache.disk_corrupt;
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

void Daemon::loop() {
  constexpr std::uint64_t kMs = 1'000'000;
  constexpr std::uint64_t kNever = UINT64_MAX;
  // The stall watchdog's tick, armed only when it is configured.
  const bool ticking = options_.progress_timeout_ms > 0;
  const std::uint64_t tick_ns =
      std::clamp<std::uint64_t>(options_.progress_timeout_ms / 4, 10, 1000) *
      kMs;
  const bool dumping = !options_.metrics_dump_path.empty();
  const std::uint64_t dump_ns =
      std::max<std::uint64_t>(1, options_.metrics_dump_ms) * kMs;
  std::uint64_t next_tick = monotonic_now_ns() + tick_ns;
  std::uint64_t next_dump = monotonic_now_ns() + dump_ns;
  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
  int timeout_ms = 0;
  while (true) {
    const int ready = ::poll(fds, 2, timeout_ms);  // EINTR re-evaluates
    char bytes[64];
    while (::read(wake_pipe_[0], bytes, sizeof(bytes)) > 0) {
    }
    if (stopping_) return;
    if (ready > 0 && (fds[0].revents & POLLIN)) accept_connection();
    const std::uint64_t now = monotonic_now_ns();
    if (dumping && now >= next_dump) {
      next_dump = now + dump_ns;
      write_metrics_dump();  // rendering takes registry mutexes, not mu_
    }
    // Run what is due, then sleep until the next timer or wake-up.
    const bool watch = ticking && now >= next_tick;
    if (watch) next_tick = now + tick_ns;
    Lifecycle::Tick due;
    step([&](Lifecycle::Outbox& out) {
      if (options_.handle_signals && g_drain_signalled.exchange(false))
        lifecycle_.begin_drain(now);
      reap_finished_readers_locked();
      due = lifecycle_.tick(now, watch, out);
      if (due.drained && !shutdown_requested_) {
        journal_.flush();
        shutdown_requested_ = true;
        cv_shutdown_.notify_all();
      }
    });
    std::uint64_t wake = std::min(due.wake_ns, dumping ? next_dump : kNever);
    if (ticking) wake = std::min(wake, next_tick);
    // Capped at a minute, so any period fits an int.
    const std::uint64_t at = std::min(wake, monotonic_now_ns());
    timeout_ms = wake == kNever ? -1
                                : static_cast<int>(std::min<std::uint64_t>(
                                      (wake - at + kMs - 1) / kMs, 60'000));
  }
}

void Daemon::accept_connection() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;  // the peer gave up first; poll() reports the next
  const std::lock_guard<std::mutex> lock(mu_);
  auto conn = std::make_shared<Connection>(fd, next_conn_++);
  conns_.emplace(conn->id, conn);
  // The reader drops its reference before it exits: the fd closes once
  // the last sender lets go, not when the loop joins the thread.
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
    // Each complete line is handled in place, as a view into the buffer;
    // the bytes read are dropped once, after the last of them.
    std::size_t begin = 0, end;
    while (open && (end = buffer.find('\n', begin)) != std::string::npos) {
      std::string_view line(buffer.data() + begin, end - begin);
      begin = end + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) open = handle_command(conn, line);
    }
    buffer.erase(0, begin);
    if (open && buffer.size() > kMaxLineBytes) {
      // A newline-free stream past the cap: refuse and hang up.
      conn->send_line(msg_error("reason=line_too_long limit_bytes=" +
                                std::to_string(kMaxLineBytes)));
      break;
    }
  }
  conn->broken.store(true, std::memory_order_relaxed);
  conn->shutdown_socket();
  // The lifecycle unsubscribes this client everywhere (and cancels its
  // orphans); the loop then joins this thread.
  step([&](Lifecycle::Outbox& out) {
    conns_.erase(conn->id);
    lifecycle_.disconnect(conn->id, monotonic_now_ns(), out);
    finished_readers_.push_back(std::this_thread::get_id());
  });
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
                            std::string_view line) {
  const Command cmd = parse_command(line);
  switch (cmd.kind) {
    case Command::Kind::kPing:
      conn->send_line(msg_pong());
      return true;
    case Command::Kind::kReset: {
      std::size_t cleared = 0;
      step([&](Lifecycle::Outbox& out) {
        cleared = lifecycle_.reset(cmd.spec, cmd.all, out);
      });
      conn->send_line(msg_resetok(cleared));
      return true;
    }
    case Command::Kind::kRun:
      handle_run(conn, cmd);
      return true;
    case Command::Kind::kCancel:
      step([&](Lifecycle::Outbox& out) {
        lifecycle_.cancel(conn->id, cmd.id, monotonic_now_ns(), out);
      });
      return true;
    case Command::Kind::kAttach:
      handle_attach(conn, cmd);
      return true;
    case Command::Kind::kStats:
      conn->send_line(msg_stats(stats_report()));
      return true;
    case Command::Kind::kMetrics: {
      // Header and exposition travel as one write unit, like RESULT.
      const std::string text = metrics_text();
      conn->post(msg_metrics(static_cast<std::size_t>(
                     std::count(text.begin(), text.end(), '\n'))) +
                 "\n" + text);
      conn->flush();
      return true;
    }
    case Command::Kind::kShutdown: {
      // BYE goes out under mu_: a client that read it finds admissions
      // already refused, and the owner cannot stop() (closing this socket)
      // before it is written.
      const std::lock_guard<std::mutex> lock(mu_);
      if (cmd.drain) {
        // Graceful: the loop requests shutdown once in-flight runs
        // finished (or the drain budget expired).
        lifecycle_.begin_drain(monotonic_now_ns());
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
  Lifecycle::Submission s;
  try {
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::parse(cmd.spec).resolved();
    scenario::TopologyRegistry::instance().validate(spec.topology);
    scenario::WorkloadRegistry::instance().validate(spec.workload);
    for (const Spec& algorithm : spec.algorithms)
      scenario::AlgorithmRegistry::instance().validate(algorithm);
    scenario::check_run_shape(spec);
    s.canonical = spec.canonical_string();
  } catch (const std::exception& e) {
    conn->send_line(msg_error(e.what()));
    return;
  }
  s.conn = conn->id;
  s.deadline_ms = cmd.deadline_ms;
  // A cache hit bypasses the queue — replaying stored bytes is cheap, so
  // cached runs are never refused for backpressure.  The lookup (a disk
  // read at worst) goes before admission, so admission is one step.
  const std::optional<std::string> payload = cache_.get(s.canonical);
  std::uint64_t id = 0;
  bool admitted = false;
  step([&](Lifecycle::Outbox& out) {
    const std::uint64_t now_ns = monotonic_now_ns();
    // The injected admission failure exercises the client's REJECT path.
    id = lifecycle_.open(
        s, now_ns, [] { return fault::fire("serve.admit.reject"); }, out);
    if (id == 0) return;
    if (payload) {
      lifecycle_.hit();
      return;
    }
    admitted = lifecycle_.enqueue(s, id, now_ns, out);
  });
  if (id != 0 && payload) {
    conn->post(msg_cached_run(id, *payload));
    conn->flush();
    return;
  }
  if (!admitted) return;
  cv_exec_.notify_one();
  if (cmd.deadline_ms > 0) wake_loop();  // it may be the earliest timer
}

void Daemon::handle_attach(const std::shared_ptr<Connection>& conn,
                           const Command& cmd) {
  Lifecycle::Replay done;
  Lifecycle::Attach attach = Lifecycle::Attach::kUnknown;
  step([&](Lifecycle::Outbox& out) {
    attach = lifecycle_.attach(conn->id, cmd.id, cmd.from, out, &done);
  });
  if (attach != Lifecycle::Attach::kDone) return;
  // A finished run replays whole; an ok run's payload from the cache.
  std::optional<std::string> payload;
  if (done.status == RunStatus::kOk &&
      !(payload = cache_.get(done.canonical))) {
    // Evicted everywhere: pretend the run is forgotten so the client
    // falls back to resubmitting (better than an ok with no bytes).
    conn->send_line(
        msg_error("reason=unknown_run id=" + std::to_string(cmd.id)));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lifecycle_.attached();
  }
  conn->post(msg_attached(cmd.id, "done", done.last_seq) + "\n");
  for (std::string& line : done.lines) conn->post(std::move(line));
  if (payload) conn->post(msg_result_unit(cmd.id, /*cached=*/true, *payload));
  conn->post(msg_done(cmd.id, status_name(done.status)) + "\n");
  conn->flush();
}

void Daemon::executor_loop() {
  while (true) {
    Lifecycle::Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_exec_.wait(lock,
                    [&] { return stopping_ || lifecycle_.queued() > 0; });
      if (stopping_) return;
      lifecycle_.pickup(monotonic_now_ns(), &job);
    }
    Lifecycle::Outcome outcome = execute(job);
    bool quarantined = false;
    step([&](Lifecycle::Outbox& out) {
      quarantined = lifecycle_.finish(job.id, std::move(outcome),
                                      monotonic_now_ns(), out);
    });
    if (quarantined)
      std::cerr << "rdcn_serve: quarantining spec after "
                << options_.quarantine_threshold
                << " consecutive failures: " << job.canonical << "\n";
    wake_loop();  // a drain may be waiting for the last run
  }
}

Lifecycle::Outcome Daemon::execute(const Lifecycle::Job& job) {
  using Kind = Lifecycle::Outcome::Kind;
  // A recovered run may have finished before the crash with its terminal
  // record lost (the cache commits before the journal's done record):
  // serve the stored bytes instead of recomputing.
  if (job.recovered)
    if (std::optional<std::string> payload = cache_.get(job.canonical))
      return {Kind::kOk, std::move(*payload), /*cached=*/true};
  scenario::RunHooks hooks;
  hooks.cancel = job.cancel;
  hooks.on_checkpoint = [&](const std::string& label, std::uint64_t seed,
                            const sim::Checkpoint& checkpoint) {
    step([&](Lifecycle::Outbox& out) {
      lifecycle_.checkpoint(job.id, label, seed, checkpoint,
                            monotonic_now_ns(), out);
    });
  };
  try {
    if (fault::fire("serve.executor.crash"))
      throw std::runtime_error("injected executor crash");
    if (fault::fire("serve.executor.stall")) {
      // Simulated wedge: no checkpoints ever come, so only the progress
      // watchdog (or a CANCEL/deadline) can end this run.  The wait is
      // cooperative — the executor thread itself never deadlocks.
      while (!job.cancel.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      throw CancelledError("stalled run cancelled");
    }
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(job.canonical);
    spec.threads = options_.threads;  // execution detail, daemon's choice
    const scenario::ScenarioResult result = scenario::run_scenario(spec, hooks);
    std::ostringstream csv;
    sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
    std::string payload = csv.str();
    cache_.put(job.canonical, payload);
    return {Kind::kOk, std::move(payload), /*cached=*/false};
  } catch (const CancelledError&) {
    return {Kind::kCancelled, "", false};
  } catch (const SpecError& e) {
    // A spec problem the admission-time validators couldn't see — a
    // refusal, not a crash: no streak, no quarantine.
    return {Kind::kSpecError, e.what(), false};
  } catch (const std::exception& e) {
    return {Kind::kCrash, e.what(), false};
  } catch (...) {
    return {Kind::kCrash, "unknown exception", false};
  }
}

}  // namespace rdcn::serve
