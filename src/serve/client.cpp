#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "serve/protocol.hpp"

namespace rdcn::serve {

namespace {

using Kind = ServerLine::Kind;

/// Mirror of the daemon's reader-side cap; a daemon streaming a longer
/// line is misbehaving, not slow.
constexpr std::size_t kMaxLineBytes = 1u << 20;

void apply_read_timeout(int fd, long seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

int connect_once(const sockaddr_un& addr, long read_timeout_seconds) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  apply_read_timeout(fd, read_timeout_seconds);
  return fd;
}

}  // namespace

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  consumed_ = 0;
  streams_.clear();
}

void Client::connect(const std::string& socket_path, int timeout_ms) {
  disconnect();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
    throw SpecError("socket path '" + socket_path +
                    "' is empty or too long for AF_UNIX");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  socket_path_ = socket_path;

  const auto deadline =
      monotonic_now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    fd_ = connect_once(addr, read_timeout_seconds_);
    if (fd_ >= 0) return;
    // ENOENT/ECONNREFUSED while the daemon is still starting up.
    if (monotonic_now() >= deadline)
      throw SpecError("cannot connect to '" + socket_path +
                      "': " + std::strerror(errno));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void Client::reconnect(int timeout_ms) {
  if (socket_path_.empty())
    throw SpecError("reconnect before any connect()");
  connect(socket_path_, timeout_ms);
}

void Client::send_line(const std::string& line) {
  if (fd_ < 0) throw SpecError("client is not connected");
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw TransportError(TransportError::Kind::kIo,
                           std::string("send failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() { return std::string(take_line()); }

std::string_view Client::take_line() {
  if (fd_ < 0) throw SpecError("client is not connected");
  while (true) {
    const std::size_t pos = buffer_.find('\n', consumed_);
    if (pos != std::string::npos) {
      std::string_view line(buffer_.data() + consumed_, pos - consumed_);
      consumed_ = pos + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return line;
    }
    buffer_.erase(0, consumed_);  // every line before the cursor is taken
    consumed_ = 0;
    if (buffer_.size() > kMaxLineBytes)
      throw TransportError(TransportError::Kind::kIo,
                           "daemon sent a line longer than " +
                               std::to_string(kMaxLineBytes) + " bytes");
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    // The three failure shapes stay distinguishable: orderly EOF means
    // the daemon is gone (reconnect+resubmit can help), a timeout means
    // it is merely slow or wedged (retrying just piles on), and a hard
    // error is a broken transport.
    if (n == 0)
      throw TransportError(TransportError::Kind::kEof,
                           "daemon closed the connection (EOF)");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TransportError(
            TransportError::Kind::kTimeout,
            "timed out waiting for the daemon (no bytes in " +
                std::to_string(read_timeout_seconds_) + "s)");
      throw TransportError(TransportError::Kind::kIo,
                           std::string("recv failed: ") +
                               std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Client::Message Client::next_message(std::uint64_t run) {
  if (const auto it = streams_.find(run); it != streams_.end()) {
    Message queued = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) streams_.erase(it);
    return queued;
  }
  while (true) {
    Message m;
    m.raw = take_line();
    m.line = parse_server_line(m.raw);
    const Kind kind = m.line.kind;
    // The daemon posts a header and its payload as one unit, so the
    // payload lines follow the header directly, in the same write.
    if (kind == Kind::kResult || kind == Kind::kMetrics)
      for (std::size_t i = 0; i < m.line.lines; ++i) {
        m.payload += take_line();
        m.payload += '\n';
      }
    const bool stream = kind == Kind::kCheckpoint ||
                        kind == Kind::kResult || kind == Kind::kDone;
    if (!stream || m.line.id == run) return m;
    streams_[m.line.id].push_back(std::move(m));
  }
}

Client::Message Client::await_reply(
    std::initializer_list<ServerLine::Kind> replies, const char* verb) {
  while (true) {
    Message m = next_message(0);
    if (std::find(replies.begin(), replies.end(), m.line.kind) !=
        replies.end())
      return m;
    // An ack whose cancel() already gave up, or one for a CANCEL sent
    // with send_line(): it answers nothing this call asked.
    if (m.line.kind == Kind::kCancelling) continue;
    throw SpecError(std::string("unexpected ") + verb + " reply: " + m.raw);
  }
}

void Client::ping() {
  send_line("PING");
  await_reply({Kind::kPong}, "PING");
}

Client::Submission Client::submit(const std::string& spec,
                                  std::uint64_t deadline_ms) {
  std::string line = "RUN " + spec;
  if (deadline_ms > 0)
    line += " deadline_ms=" + std::to_string(deadline_ms);
  send_line(line);
  const ServerLine reply =
      await_reply({Kind::kAccepted, Kind::kReject, Kind::kError}, "RUN").line;
  Submission out;
  out.accepted = reply.kind == Kind::kAccepted;
  out.rejected = reply.kind == Kind::kReject;
  if (out.accepted) out.id = reply.id;
  if (out.rejected) {
    out.retry_ms = reply.retry_ms;
    out.reason = reply.status;
  }
  if (reply.kind == Kind::kError) out.error = reply.text;
  return out;
}

Client::RunOutput Client::collect(
    std::uint64_t id,
    const std::function<void(const std::string& line)>& on_checkpoint) {
  RunOutput out;
  while (true) {
    Message m = next_message(id);
    switch (m.line.kind) {
      case Kind::kCheckpoint:
        ++out.checkpoints;
        if (on_checkpoint) on_checkpoint(m.raw);
        continue;
      case Kind::kResult:
        out.cached = m.line.cached;
        out.csv = std::move(m.payload);
        continue;
      case Kind::kError:
        out.error = m.line.text;  // precedes DONE status=error
        continue;
      case Kind::kCancelling:
        continue;  // ack of a CANCEL sent with send_line() meanwhile
      case Kind::kDone:
        out.status = m.line.status;
        return out;
      default:
        throw SpecError("unexpected line while collecting run " +
                        std::to_string(id) + ": " + m.raw);
    }
  }
}

Client::AttachResult Client::attach(std::uint64_t id, std::uint64_t from) {
  std::string line = "ATTACH " + std::to_string(id);
  if (from > 1) line += " from=" + std::to_string(from);
  send_line(line);
  const ServerLine reply =
      await_reply({Kind::kAttached, Kind::kError}, "ATTACH").line;
  AttachResult out;
  out.attached = reply.kind == Kind::kAttached;
  if (out.attached) {
    out.state = reply.status;
    out.last_seq = reply.seq;
  } else {
    out.error = reply.text;
  }
  return out;
}

Client::RunOutput Client::run_scenario(
    const std::string& spec, const RetryPolicy& policy,
    std::uint64_t deadline_ms,
    const std::function<void(const std::string& line)>& on_checkpoint) {
  // Deterministic jitter stream; seed 0 decorrelates by process identity
  // so a fleet of default-policy clients doesn't thunder in lockstep.
  SplitMix64 jitter(policy.jitter_seed != 0
                        ? policy.jitter_seed
                        : 0x9e3779b97f4a7c15ULL ^
                              static_cast<std::uint64_t>(::getpid()));
  std::uint64_t backoff_ms = policy.base_backoff_ms;
  std::string last_failure = "never submitted";
  // Resume state: the ACCEPTED id of the in-flight attempt and how many
  // checkpoints this client already consumed — a reconnect ATTACHes with
  // from=seen+1 so the daemon replays exactly the missed ones (valid even
  // across a daemon restart: the recovered run re-emits the same
  // deterministic checkpoint sequence).
  std::uint64_t live_id = 0;
  std::uint64_t checkpoints_seen = 0;
  const auto tap = [&](const std::string& raw) {
    ++checkpoints_seen;
    if (on_checkpoint) on_checkpoint(raw);
  };

  const auto sleep_with_jitter = [&](std::uint64_t delay_ms) {
    // Full delay shrunk into [delay/2, delay]: bounded above by the
    // backoff cap, spread out enough to decorrelate retry storms.
    const std::uint64_t half = delay_ms / 2;
    const std::uint64_t span = delay_ms - half + 1;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(half + jitter.next() % span));
  };

  for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    const auto bump_backoff = [&] {
      backoff_ms = std::min<std::uint64_t>(backoff_ms * 2,
                                           policy.max_backoff_ms);
    };
    try {
      if (!connected()) reconnect(policy.reconnect_timeout_ms);
      if (live_id != 0) {
        // A previous attempt's run may still be going (or already done)
        // server-side: rejoin it instead of resubmitting blind.
        const AttachResult at = attach(live_id, checkpoints_seen + 1);
        if (at.attached) {
          RunOutput out = collect(live_id, tap);
          // "cancelled" here is the daemon reaping the run we orphaned
          // by disconnecting (no journal to make it durable) — a lost
          // run, not an answer; fall through to a fresh submission.
          if (out.status != "cancelled") {
            out.checkpoints = static_cast<std::size_t>(checkpoints_seen);
            out.attempts = attempt;
            return out;
          }
        }
        // The daemon forgot (or reaped) the run; start over fresh.
        live_id = 0;
        checkpoints_seen = 0;
      }
      const Submission sub = submit(spec, deadline_ms);
      if (!sub.error.empty()) {
        // Refused (bad spec, quarantined): permanent, don't burn retries.
        RunOutput out;
        out.status = "error";
        out.error = sub.error;
        out.attempts = attempt;
        return out;
      }
      if (sub.rejected) {
        last_failure =
            "rejected (reason=" +
            (sub.reason.empty() ? std::string("queue_full") : sub.reason) +
            ", retry_ms=" + std::to_string(sub.retry_ms) + ")";
        // The server's hint is honest but clamped: a slow drain's hint
        // must not park this client for a minute on one REJECT.
        const std::uint32_t hint =
            std::min(sub.retry_ms, policy.max_retry_hint_ms);
        sleep_with_jitter(std::max<std::uint64_t>(hint, backoff_ms));
        bump_backoff();
        continue;
      }
      live_id = sub.id;
      RunOutput out = collect(sub.id, tap);
      out.checkpoints = static_cast<std::size_t>(checkpoints_seen);
      out.attempts = attempt;
      return out;
    } catch (const TransportError& e) {
      if (e.kind() == TransportError::Kind::kTimeout)
        throw;  // daemon is slow/wedged, not gone — retrying piles on
      // kEof/kIo: the daemon (or our connection) went away mid-run.
      // Reconnect and ATTACH by the accepted id (or resubmit when there
      // is none); a run that completed server-side replays its stored
      // outcome, so no work is repeated.
      last_failure = e.what();
      disconnect();
      sleep_with_jitter(backoff_ms);
      bump_backoff();
    }
  }
  throw SpecError("run_scenario gave up after " +
                  std::to_string(policy.max_attempts) +
                  " attempts; last failure: " + last_failure);
}

bool Client::cancel(std::uint64_t id) {
  send_line("CANCEL " + std::to_string(id));
  while (true) {
    const ServerLine reply =
        await_reply({Kind::kCancelling, Kind::kError}, "CANCEL").line;
    if (reply.kind == Kind::kError) return false;  // unknown or finished
    if (reply.id == id) return true;
  }
}

std::size_t Client::reset_common(const std::string& line) {
  send_line(line);
  return await_reply({Kind::kResetOk}, "RESET").line.lines;
}

std::size_t Client::reset_quarantine(const std::string& canonical_spec) {
  return reset_common("RESET spec=" + canonical_spec);
}

std::size_t Client::reset_all() { return reset_common("RESET all=1"); }

std::string Client::stats() {
  send_line("STATS");
  return await_reply({Kind::kStats}, "STATS").line.text;
}

StatsReport Client::stats_report() { return parse_stats(stats()); }

std::string Client::metrics() {
  send_line("METRICS");
  return await_reply({Kind::kMetrics}, "METRICS").payload;
}

void Client::set_read_timeout_seconds(long seconds) {
  read_timeout_seconds_ = seconds;
  if (fd_ >= 0) apply_read_timeout(fd_, seconds);
}

void Client::shutdown_daemon(bool drain) {
  send_line(drain ? "SHUTDOWN drain=1" : "SHUTDOWN");
  await_reply({Kind::kBye}, "SHUTDOWN");
}

}  // namespace rdcn::serve
