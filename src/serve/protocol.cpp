#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>

#include "common/param_map.hpp"

namespace rdcn::serve {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

namespace {

using rdcn::detail::append_number;

/// Splits "VERB rest" at the first space; rest is "" when absent.
void split_verb(std::string_view line, std::string_view& verb,
                std::string_view& rest) {
  const std::size_t space = line.find(' ');
  verb = line.substr(0, space);
  rest = space == std::string_view::npos ? std::string_view()
                                          : line.substr(space);
  rest.remove_prefix(std::min(rest.find_first_not_of(' '), rest.size()));
}

/// Extracts "key=<value>" from an attribute line ("ACCEPTED id=3"); value
/// runs to the next space.  Returns "" when absent.
std::string_view attr(std::string_view rest, std::string_view key) {
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const std::size_t item_end = rest.find(' ', pos);
    const std::string_view item = rest.substr(pos, item_end - pos);
    if (item.size() > key.size() && item.starts_with(key) &&
        item[key.size()] == '=')
      return item.substr(key.size() + 1);
    if (item_end == std::string_view::npos) break;
    pos = item_end + 1;
  }
  return {};
}

std::uint64_t attr_u64(std::string_view rest, std::string_view key) {
  std::uint64_t out = 0;
  parse_u64(attr(rest, key), out);
  return out;
}

/// A command's operand: the first space-separated token of `rest`.
std::string_view operand(std::string_view rest) {
  return rest.substr(0, rest.find(' '));
}

/// The space-separated "k=v" tokens after a command's operand (the first
/// token of `rest`), read into a ParamMap like every typed-in value.  A
/// bare token reads as k="", which no option accepts.
ParamMap options_after_operand(std::string_view rest) {
  ParamMap out;
  const std::size_t space = rest.find(' ');
  if (space == std::string_view::npos) return out;  // the common bare RUN
  rdcn::detail::split(rest.substr(space + 1), ' ', [&](std::string_view token) {
    const std::size_t eq = token.find('=');
    if (!token.empty())
      out.set(token.substr(0, eq), eq == std::string_view::npos
                                       ? std::string_view()
                                       : token.substr(eq + 1));
  });
  return out;
}

/// Option `key` as a positive integer, `fallback` when absent; a present
/// value that is not one raises SpecError naming the token.
std::uint64_t positive_option(const ParamMap& options, std::string_view key,
                              std::uint64_t fallback) {
  const std::string* raw = options.find(key);
  if (raw == nullptr) return fallback;
  const auto value = ParamMap::convert<std::uint64_t>(key, *raw);
  if (value == 0)
    throw SpecError("invalid option '" + std::string(key) + "=" + *raw + "'");
  return value;
}

}  // namespace

Command parse_command(std::string_view line) {
  Command cmd;
  std::string_view verb, rest;
  split_verb(line, verb, rest);
  if (verb == "PING") {
    cmd.kind = rest.empty() ? Command::Kind::kPing : Command::Kind::kInvalid;
    if (!rest.empty()) cmd.error = "PING takes no arguments";
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
    cmd.spec = operand(rest);
    try {
      const ParamMap options = options_after_operand(rest);
      cmd.deadline_ms = positive_option(options, "deadline_ms", 0);
      options.require_all_consumed("RUN");
      cmd.kind = Command::Kind::kRun;
    } catch (const SpecError& e) {
      cmd.error = std::string(e.what()) +
                  "; known RUN options: deadline_ms=<positive integer>";
    }
  } else if (verb == "CANCEL") {
    // The operand read as ATTACH reads it; CANCEL takes no options.
    if (!parse_u64(operand(rest), cmd.id) ||
        !options_after_operand(rest).empty()) {
      cmd.error = "CANCEL needs a run id ('CANCEL <id>')";
    } else {
      cmd.kind = Command::Kind::kCancel;
    }
  } else if (verb == "ATTACH") {
    if (!parse_u64(operand(rest), cmd.id)) {
      cmd.error = "ATTACH needs a run id ('ATTACH <id> [from=<k>]')";
    } else {
      try {
        const ParamMap options = options_after_operand(rest);
        cmd.from = positive_option(options, "from", 1);
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
      cmd.error = "unrecognized SHUTDOWN option '" + std::string(rest) +
                  "'; known: drain=<0|1>";
    }
  } else {
    cmd.error = "unknown command '" + std::string(verb) +
                "'; known: PING, RUN, CANCEL, ATTACH, RESET, STATS, METRICS, "
                "SHUTDOWN";
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

std::string msg_reject(std::uint32_t retry_ms) {
  return "REJECT retry_ms=" + std::to_string(retry_ms) + " reason=queue_full";
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

std::string msg_result_unit(std::uint64_t id, bool cached,
                            const std::string& payload) {
  const auto lines = static_cast<std::size_t>(
      std::count(payload.begin(), payload.end(), '\n'));
  return msg_result(id, cached, lines) + "\n" + payload;
}

std::string msg_cached_run(std::uint64_t id, const std::string& payload) {
  std::string out = "ACCEPTED id=";
  out.reserve(payload.size() + 112);
  append_number(out, id);
  out += "\nRESULT id=";
  append_number(out, id);
  out += " cached=1 lines=";
  append_number(out, static_cast<std::uint64_t>(
                         std::count(payload.begin(), payload.end(), '\n')));
  out += '\n';
  out += payload;
  out += "DONE id=";
  append_number(out, id);
  out += " status=ok\n";
  return out;
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
         " stalled=" + std::to_string(r.stalled);
}

StatsReport parse_stats(std::string_view attrs) {
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
  r.stalled = attr_u64(attrs, "stalled");
  return r;
}

std::string msg_metrics(std::size_t lines) {
  return "METRICS lines=" + std::to_string(lines);
}

std::string msg_bye() { return "BYE"; }

ServerLine parse_server_line(std::string_view line) {
  ServerLine out;
  std::string_view verb, rest;
  split_verb(line, verb, rest);
  if (verb == "PONG") {
    out.kind = ServerLine::Kind::kPong;
  } else if (verb == "ERROR") {
    out.kind = ServerLine::Kind::kError;
    out.text = rest;
  } else if (verb == "ACCEPTED") {
    out.kind = ServerLine::Kind::kAccepted;
    out.id = attr_u64(rest, "id");
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
