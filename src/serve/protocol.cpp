#include "serve/protocol.hpp"

#include <charconv>

#include "common/param_map.hpp"
#include "serve/admission.hpp"

namespace rdcn::serve {

namespace {

/// Strict u64 parse mirroring ParamMap::parse_uint: full consumption, no
/// signs, no trailing garbage.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

/// Splits "VERB rest" at the first space; rest is "" when absent.
void split_verb(const std::string& line, std::string& verb,
                std::string& rest) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    verb = line;
    rest.clear();
    return;
  }
  verb = line.substr(0, space);
  std::size_t begin = space;
  while (begin < line.size() && line[begin] == ' ') ++begin;
  rest = line.substr(begin);
}

/// Extracts "key=<value>" from an attribute line ("ACCEPTED id=3"); value
/// runs to the next space.  Returns "" when absent.
std::string attr(const std::string& rest, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const std::size_t item_end = rest.find(' ', pos);
    const std::size_t len =
        (item_end == std::string::npos ? rest.size() : item_end) - pos;
    if (rest.compare(pos, needle.size(), needle) == 0)
      return rest.substr(pos + needle.size(), len - needle.size());
    if (item_end == std::string::npos) break;
    pos = item_end + 1;
  }
  return "";
}

std::uint64_t attr_u64(const std::string& rest, const std::string& key) {
  std::uint64_t out = 0;
  parse_u64(attr(rest, key), out);
  return out;
}

/// The space-separated "k=v" tokens after a command's operand (the first
/// token of `rest`), read into a ParamMap like every typed-in value.  A
/// bare token reads as k="", which no option accepts.
ParamMap options_after_operand(const std::string& rest) {
  ParamMap out;
  const std::size_t space = rest.find(' ');
  if (space == std::string::npos) return out;  // the common bare RUN
  for (const std::string& token :
       rdcn::detail::split(rest.substr(space + 1), ' ')) {
    const std::size_t eq = token.find('=');
    if (!token.empty())
      out.set(token.substr(0, eq),
              eq == std::string::npos ? "" : token.substr(eq + 1));
  }
  return out;
}

/// Option `key` as T, `fallback` when absent; a present value `valid`
/// refuses raises SpecError naming the token.
template <typename T, typename Valid>
T option(const ParamMap& options, const std::string& key, T fallback,
         Valid valid) {
  const T value = options.get(key, fallback);
  if (options.contains(key) && !valid(value))
    throw SpecError("invalid option '" + key + "=" +
                    options.get<std::string>(key) + "'");
  return value;
}

bool positive(std::uint64_t n) { return n > 0; }

}  // namespace

Command parse_command(const std::string& line) {
  Command cmd;
  std::string verb, rest;
  split_verb(line, verb, rest);
  if (verb == "PING") {
    cmd.kind = rest.empty() ? Command::Kind::kPing : Command::Kind::kInvalid;
    if (!rest.empty()) cmd.error = "PING takes no arguments";
  } else if (verb == "HELLO") {
    constexpr const char* kClientKey = "client=";
    if (rest.compare(0, 7, kClientKey) == 0 &&
        is_valid_client_name(rest.substr(7))) {
      cmd.kind = Command::Kind::kHello;
      cmd.client = rest.substr(7);
    } else {
      cmd.error =
          "HELLO needs a client name ('HELLO client=<name>', 1-64 chars "
          "from [A-Za-z0-9._-])";
    }
  } else if (verb == "RESET") {
    constexpr const char* kSpecKey = "spec=";
    if (rest == "all=1") {
      cmd.kind = Command::Kind::kReset;
      cmd.all = true;
    } else if (rest.compare(0, 5, kSpecKey) == 0 && rest.size() > 5 &&
               rest.find(' ') == std::string::npos) {
      cmd.kind = Command::Kind::kReset;
      cmd.spec = rest.substr(5);
    } else {
      cmd.error =
          "RESET needs 'spec=<canonical spec>' or 'all=1' ('RESET "
          "spec=...' clears one quarantine streak)";
    }
  } else if (verb == "RUN" && rest.empty()) {
    cmd.error = "RUN needs a scenario spec ('RUN <spec>')";
  } else if (verb == "RUN") {
    // The spec itself never contains spaces; the tokens after it are run
    // options.
    cmd.spec = rest.substr(0, rest.find(' '));
    try {
      const ParamMap options = options_after_operand(rest);
      cmd.deadline_ms =
          option<std::uint64_t>(options, "deadline_ms", 0, positive);
      cmd.client =
          option<std::string>(options, "client", "", is_valid_client_name);
      cmd.priority = option(options, "priority", 1,
                            [](int p) { return p >= 0 && p <= 2; });
      options.require_all_consumed("RUN");
      cmd.kind = Command::Kind::kRun;
    } catch (const SpecError& e) {
      cmd.error = std::string(e.what()) +
                  "; known RUN options: deadline_ms=<positive integer>, "
                  "client=<name>, priority=<0-2>";
    }
  } else if (verb == "CANCEL") {
    if (!parse_u64(rest, cmd.id)) {
      cmd.error = "CANCEL needs a run id ('CANCEL <id>')";
    } else {
      cmd.kind = Command::Kind::kCancel;
    }
  } else if (verb == "ATTACH") {
    if (!parse_u64(rest.substr(0, rest.find(' ')), cmd.id)) {
      cmd.error = "ATTACH needs a run id ('ATTACH <id> [from=<k>]')";
    } else {
      try {
        const ParamMap options = options_after_operand(rest);
        cmd.from = option<std::uint64_t>(options, "from", 1, positive);
        options.require_all_consumed("ATTACH");
        cmd.kind = Command::Kind::kAttach;
      } catch (const SpecError& e) {
        cmd.error = std::string(e.what()) +
                    "; known ATTACH options: from=<positive integer>";
      }
    }
  } else if (verb == "STATS") {
    cmd.kind = Command::Kind::kStats;
  } else if (verb == "METRICS") {
    cmd.kind = Command::Kind::kMetrics;
  } else if (verb == "SHUTDOWN") {
    if (rest.empty()) {
      cmd.kind = Command::Kind::kShutdown;
    } else if (rest == "drain=1") {
      cmd.kind = Command::Kind::kShutdown;
      cmd.drain = true;
    } else if (rest == "drain=0") {
      cmd.kind = Command::Kind::kShutdown;
    } else {
      cmd.error = "unrecognized SHUTDOWN option '" + rest +
                  "'; known: drain=<0|1>";
    }
  } else {
    cmd.error = "unknown command '" + verb +
                "'; known: PING, HELLO, RUN, CANCEL, ATTACH, RESET, STATS, "
                "METRICS, SHUTDOWN";
  }
  return cmd;
}

std::string sanitize(std::string text) {
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return text;
}

std::string msg_pong() { return "PONG"; }

std::string msg_error(const std::string& what) {
  return "ERROR " + sanitize(what);
}

std::string msg_accepted(std::uint64_t id) {
  return "ACCEPTED id=" + std::to_string(id);
}

std::string msg_welcome(const std::string& client) {
  return "WELCOME client=" + client;
}

std::string msg_reject(std::uint32_t retry_ms, const std::string& reason) {
  return "REJECT retry_ms=" + std::to_string(retry_ms) +
         " reason=" + reason;
}

std::string msg_resetok(std::size_t cleared) {
  return "RESETOK cleared=" + std::to_string(cleared);
}

std::string msg_cancelling(std::uint64_t id) {
  return "CANCELLING id=" + std::to_string(id);
}

std::string msg_attached(std::uint64_t id, const std::string& state,
                         std::uint64_t last_seq) {
  return "ATTACHED id=" + std::to_string(id) + " state=" + state +
         " last_seq=" + std::to_string(last_seq);
}

std::string msg_checkpoint(std::uint64_t id, std::uint64_t seq,
                           const std::string& label, std::uint64_t seed,
                           const sim::Checkpoint& c) {
  return "CHECKPOINT id=" + std::to_string(id) +
         " seq=" + std::to_string(seq) + " label=" + sanitize(label) +
         " seed=" + std::to_string(seed) +
         " requests=" + std::to_string(c.requests) +
         " routing=" + std::to_string(c.routing_cost) +
         " total=" + std::to_string(c.total_cost) +
         " wall=" + std::to_string(c.wall_seconds);
}

std::string msg_result(std::uint64_t id, bool cached, std::size_t lines) {
  return "RESULT id=" + std::to_string(id) +
         " cached=" + (cached ? "1" : "0") +
         " lines=" + std::to_string(lines);
}

std::string msg_done(std::uint64_t id, const std::string& status) {
  return "DONE id=" + std::to_string(id) + " status=" + status;
}

std::string msg_stats(const StatsReport& r) {
  return "STATS active=" + std::to_string(r.active) +
         " queued=" + std::to_string(r.queued) +
         " cache_hits=" + std::to_string(r.cache_hits) +
         " cache_misses=" + std::to_string(r.cache_misses) +
         " cache_entries=" + std::to_string(r.cache_entries) +
         " completed=" + std::to_string(r.completed) +
         " cancelled=" + std::to_string(r.cancelled) +
         " deadline_exceeded=" + std::to_string(r.deadline_exceeded) +
         " crashed=" + std::to_string(r.crashed) +
         " rejected=" + std::to_string(r.rejected) +
         " quarantined=" + std::to_string(r.quarantined) +
         " disk_hits=" + std::to_string(r.disk_hits) +
         " disk_corrupt=" + std::to_string(r.disk_corrupt) +
         " recovered=" + std::to_string(r.recovered) +
         " attached=" + std::to_string(r.attached) +
         " shed=" + std::to_string(r.shed) +
         " stalled=" + std::to_string(r.stalled) +
         " brownout=" + std::to_string(r.brownout) +
         " clients=" + std::to_string(r.clients);
}

StatsReport parse_stats(const std::string& attrs) {
  StatsReport r;
  r.active = static_cast<std::size_t>(attr_u64(attrs, "active"));
  r.queued = static_cast<std::size_t>(attr_u64(attrs, "queued"));
  r.cache_hits = attr_u64(attrs, "cache_hits");
  r.cache_misses = attr_u64(attrs, "cache_misses");
  r.cache_entries = static_cast<std::size_t>(attr_u64(attrs, "cache_entries"));
  r.completed = attr_u64(attrs, "completed");
  r.cancelled = attr_u64(attrs, "cancelled");
  r.deadline_exceeded = attr_u64(attrs, "deadline_exceeded");
  r.crashed = attr_u64(attrs, "crashed");
  r.rejected = attr_u64(attrs, "rejected");
  r.quarantined = attr_u64(attrs, "quarantined");
  r.disk_hits = attr_u64(attrs, "disk_hits");
  r.disk_corrupt = attr_u64(attrs, "disk_corrupt");
  r.recovered = attr_u64(attrs, "recovered");
  r.attached = attr_u64(attrs, "attached");
  r.shed = attr_u64(attrs, "shed");
  r.stalled = attr_u64(attrs, "stalled");
  r.brownout = static_cast<std::size_t>(attr_u64(attrs, "brownout"));
  r.clients = static_cast<std::size_t>(attr_u64(attrs, "clients"));
  return r;
}

std::string msg_metrics(std::size_t lines) {
  return "METRICS lines=" + std::to_string(lines);
}

std::string msg_bye() { return "BYE"; }

ServerLine parse_server_line(const std::string& line) {
  ServerLine out;
  std::string verb, rest;
  split_verb(line, verb, rest);
  if (verb == "PONG") {
    out.kind = ServerLine::Kind::kPong;
  } else if (verb == "ERROR") {
    out.kind = ServerLine::Kind::kError;
    out.text = rest;
  } else if (verb == "ACCEPTED") {
    out.kind = ServerLine::Kind::kAccepted;
    out.id = attr_u64(rest, "id");
  } else if (verb == "WELCOME") {
    out.kind = ServerLine::Kind::kWelcome;
    out.text = attr(rest, "client");
  } else if (verb == "REJECT") {
    out.kind = ServerLine::Kind::kReject;
    out.retry_ms = static_cast<std::uint32_t>(attr_u64(rest, "retry_ms"));
    out.status = attr(rest, "reason");
  } else if (verb == "RESETOK") {
    out.kind = ServerLine::Kind::kResetOk;
    out.lines = static_cast<std::size_t>(attr_u64(rest, "cleared"));
  } else if (verb == "CANCELLING") {
    out.kind = ServerLine::Kind::kCancelling;
    out.id = attr_u64(rest, "id");
  } else if (verb == "ATTACHED") {
    out.kind = ServerLine::Kind::kAttached;
    out.id = attr_u64(rest, "id");
    out.status = attr(rest, "state");
    out.seq = attr_u64(rest, "last_seq");
  } else if (verb == "CHECKPOINT") {
    out.kind = ServerLine::Kind::kCheckpoint;
    out.id = attr_u64(rest, "id");
    out.seq = attr_u64(rest, "seq");
    out.text = rest;
  } else if (verb == "RESULT") {
    out.kind = ServerLine::Kind::kResult;
    out.id = attr_u64(rest, "id");
    out.cached = attr_u64(rest, "cached") != 0;
    out.lines = static_cast<std::size_t>(attr_u64(rest, "lines"));
  } else if (verb == "DONE") {
    out.kind = ServerLine::Kind::kDone;
    out.id = attr_u64(rest, "id");
    out.status = attr(rest, "status");
  } else if (verb == "STATS") {
    out.kind = ServerLine::Kind::kStats;
    out.text = rest;
  } else if (verb == "METRICS") {
    out.kind = ServerLine::Kind::kMetrics;
    out.lines = static_cast<std::size_t>(attr_u64(rest, "lines"));
  } else if (verb == "BYE") {
    out.kind = ServerLine::Kind::kBye;
  } else {
    out.text = line;
  }
  return out;
}

}  // namespace rdcn::serve
