#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"

namespace rdcn::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'R', 'D', 'J', '1'};
constexpr const char* kLogName = "wal.rdj";
/// A record payload is one short text line; anything past this is a
/// corrupt length field, not a real record — reject before allocating.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

std::string frame(const std::string& payload) {
  std::string out;
  out.reserve(8 + payload.size());
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

/// Splits a payload into its space-separated tokens; the LAST field of
/// admit/streak records (the spec) swallows the rest of the line.
std::vector<std::string> tokens(const std::string& payload,
                                std::size_t max_fields) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < payload.size() && out.size() + 1 < max_fields) {
    const std::size_t space = payload.find(' ', pos);
    if (space == std::string::npos) break;
    out.push_back(payload.substr(pos, space - pos));
    pos = space + 1;
  }
  if (pos <= payload.size()) out.push_back(payload.substr(pos));
  return out;
}

/// The client field of an admit2/admit3 record: 1-64 chars from
/// [A-Za-z0-9._-].  A record naming another is not replayed.
bool is_valid_client_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Writes all of `bytes`, retrying interrupted writes.  False on error.
bool write_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Journal::Journal(std::string directory, obs::Registry& registry)
    : directory_(std::move(directory)),
      appends_(registry.counter("rdcn_journal_appends_total",
                                "Run-journal records appended")),
      replayed_(registry.counter("rdcn_journal_replayed_total",
                                 "Run-journal records replayed at startup")),
      corrupt_(registry.counter("rdcn_journal_corrupt_total",
                                "Corrupt/torn run-journal records skipped")) {
  if (!enabled()) return;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec)
    throw SpecError("cannot create journal directory '" + directory_ +
                    "': " + ec.message());
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Journal::Recovery Journal::replay(const std::vector<std::string>& payloads,
                                  std::uint64_t fallback_next_id) {
  Recovery out;
  out.next_id = fallback_next_id;
  out.replayed = payloads.size();
  // Admit order is kept so recovered runs re-enqueue in their original
  // admission order.
  std::vector<RecoveredRun> runs;
  std::unordered_map<std::uint64_t, std::size_t> by_id;  ///< id → runs index
  std::unordered_map<std::uint64_t, std::string> finished;  ///< id → status
  std::map<std::string, std::size_t> streaks;
  const auto admit = [&](std::uint64_t id, RecoveredRun run) {
    if (by_id.count(id) == 0 && finished.count(id) == 0) {
      by_id.emplace(id, runs.size());
      runs.push_back(std::move(run));
    }
    if (id + 1 > out.next_id) out.next_id = id + 1;
  };
  for (const std::string& payload : payloads) {
    const std::vector<std::string> t = tokens(payload, 3);
    std::uint64_t id = 0;
    if (t.size() >= 2 && t[0] == "nextid" && parse_u64(t[1], id)) {
      if (id > out.next_id) out.next_id = id;
    } else if (t.size() >= 3 && t[0] == "admit" && parse_u64(t[1], id)) {
      admit(id, RecoveredRun{id, t[2]});
    } else if (t[0] == "admit2" || t[0] == "admit3") {
      // Re-tokenize: priority + client (+ admit3's deadline) before the
      // spec.  Priority and client are checked, then ignored.
      const std::size_t fields = t[0] == "admit3" ? 6 : 5;
      const std::vector<std::string> t2 = tokens(payload, fields);
      std::uint64_t priority = 0;
      std::uint64_t deadline_ms = 0;
      if (t2.size() >= fields && parse_u64(t2[1], id) &&
          parse_u64(t2[2], priority) && priority <= 2 &&
          is_valid_client_name(t2[3]) &&
          (fields == 5 || parse_u64(t2[4], deadline_ms)))
        admit(id, RecoveredRun{id, t2.back(), deadline_ms});
    } else if (t.size() >= 3 && t[0] == "done" && parse_u64(t[1], id)) {
      // Duplicate terminal records are idempotent: the first wins.
      finished.emplace(id, t[2]);
      const auto it = by_id.find(id);
      if (it != by_id.end()) {
        runs[it->second].id = 0;  // tombstone; compacted out below
        by_id.erase(it);
      }
    } else if (t.size() >= 3 && t[0] == "streak") {
      std::uint64_t n = 0;
      if (parse_u64(t[1], n)) {
        if (n == 0)
          streaks.erase(t[2]);
        else
          streaks[t[2]] = static_cast<std::size_t>(n);
      }
    }
    // Unknown record types are skipped (forward compatibility).
  }
  for (const RecoveredRun& run : runs)
    if (run.id != 0) out.incomplete.push_back(run);
  out.quarantine.assign(streaks.begin(), streaks.end());
  return out;
}

std::vector<std::string> Journal::compact(const Recovery& recovery) {
  std::vector<std::string> out{nextid_record(recovery.next_id)};
  for (const auto& [spec, streak] : recovery.quarantine)
    out.push_back(streak_record(spec, streak));
  for (const RecoveredRun& run : recovery.incomplete)
    out.push_back(admit_record(run.id, run.spec, run.deadline_ms));
  return out;
}

Journal::Recovery Journal::recover(std::uint64_t fallback_next_id) {
  if (!enabled()) return replay({}, fallback_next_id);
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string path = directory_ + "/" + kLogName;

  // ---- replay ----------------------------------------------------------
  // Spans are siblings, not nested: replay time should not absorb the
  // compaction rewrite below.
  std::optional<obs::ObsSpan> replay_span;
  replay_span.emplace("serve.journal.replay");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (in)
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  }
  std::vector<std::string> payloads;
  std::uint64_t corrupt = 0;
  std::size_t pos = 0;
  if (bytes.size() >= sizeof(kMagic) &&
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0) {
    pos = sizeof(kMagic);
  } else if (!bytes.empty()) {
    // Wrong magic: nothing after it can be trusted.
    std::cerr << "rdcn_serve: journal: bad magic in " << path
              << ", starting fresh\n";
    corrupt += 1;
    pos = bytes.size();
  }
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {  // torn frame header
      corrupt += 1;
      break;
    }
    const std::uint32_t len = read_u32(bytes, pos);
    const std::uint32_t crc = read_u32(bytes, pos + 4);
    if (len > kMaxPayloadBytes || bytes.size() - pos - 8 < len) {
      corrupt += 1;  // truncated tail (or a corrupt length field)
      break;
    }
    std::string payload = bytes.substr(pos + 8, len);
    if (crc32(payload.data(), payload.size()) != crc) {
      // A bit-flipped record: everything after it has unknown framing,
      // so the replay stops here — the valid prefix is still good.
      corrupt += 1;
      break;
    }
    pos += 8 + len;
    payloads.push_back(std::move(payload));
  }
  Recovery out = replay(payloads, fallback_next_id);
  out.corrupt = corrupt;
  replayed_.add(out.replayed);
  if (out.corrupt > 0) {
    corrupt_.add(out.corrupt);
    std::cerr << "rdcn_serve: journal: skipped " << out.corrupt
              << " corrupt/torn record(s) at the tail of " << path << "\n";
  }
  replay_span.reset();

  // ---- compact ---------------------------------------------------------
  // Rewrite live state only (temp-file + rename, like the disk cache):
  // the log's size is bounded by live state, and the torn tail is gone.
  const obs::ObsSpan compact_span("serve.journal.compact");
  const std::string temp = path + ".tmp";
  std::string fresh(kMagic, sizeof(kMagic));
  for (const std::string& record : compact(out)) fresh += frame(record);
  const int temp_fd = ::open(temp.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool committed = false;
  if (temp_fd >= 0) {
    committed = write_all(temp_fd, fresh) && ::fsync(temp_fd) == 0;
    ::close(temp_fd);
    if (committed && std::rename(temp.c_str(), path.c_str()) != 0)
      committed = false;
  }
  if (!committed) {
    // A disk too broken to compact degrades to appending onto the old
    // log (replay handles the torn tail again next time) — never fatal.
    std::cerr << "rdcn_serve: journal: cannot compact " << path << ": "
              << std::strerror(errno) << "\n";
    ::unlink(temp.c_str());
    // Ensure the file at least exists with a magic header for appends.
    const int probe = ::open(path.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (probe >= 0) {
      off_t size = ::lseek(probe, 0, SEEK_END);
      if (size == 0) {
        [[maybe_unused]] const ssize_t n =
            ::write(probe, kMagic, sizeof(kMagic));
      }
      ::close(probe);
    }
  }

  // ---- open for appends ------------------------------------------------
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0)
    std::cerr << "rdcn_serve: journal: cannot open " << path
              << " for append: " << std::strerror(errno) << "\n";
  return out;
}

void Journal::append(const std::string& payload) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;  // recover() not called or the disk is gone
  if (!write_all(fd_, frame(payload))) {
    // A failed append degrades durability, never correctness: the
    // record's run merely recomputes after a crash.
    std::cerr << "rdcn_serve: journal: append failed: "
              << std::strerror(errno) << "\n";
    return;
  }
  appends_.inc();
}

std::string Journal::nextid_record(std::uint64_t next_id) {
  return "nextid " + std::to_string(next_id);
}

std::string Journal::admit_record(std::uint64_t id, const std::string& spec,
                                  std::uint64_t deadline_ms) {
  return "admit3 " + std::to_string(id) + " 1 anon " +
         std::to_string(deadline_ms) + " " + spec;
}

std::string Journal::done_record(std::uint64_t id, const std::string& status) {
  return "done " + std::to_string(id) + " " + status;
}

std::string Journal::streak_record(const std::string& spec,
                                   std::size_t streak) {
  return "streak " + std::to_string(streak) + " " + spec;
}

void Journal::flush() {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (fault::fire("serve.journal.stall"))
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ::fsync(fd_);
}

}  // namespace rdcn::serve
