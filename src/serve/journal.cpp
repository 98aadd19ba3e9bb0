#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <unordered_map>

#include "common/crc32.hpp"
#include "common/param_map.hpp"
#include "obs/span.hpp"
#include "serve/admission.hpp"

namespace rdcn::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'R', 'D', 'J', '1'};
constexpr const char* kLogName = "wal.rdj";
/// A record payload is one short text line; anything past this is a
/// corrupt length field, not a real record — reject before allocating.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(char((value >> (8 * i)) & 0xff));
}

std::uint32_t read_u32(const std::string& bytes, std::size_t pos) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i)
    value = (value << 8) |
            static_cast<unsigned char>(bytes[pos + static_cast<size_t>(i)]);
  return value;
}

std::string frame(const std::string& payload) {
  std::string out;
  out.reserve(8 + payload.size());
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
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

}  // namespace

Journal::Journal(std::string directory, obs::Registry* registry)
    : directory_(std::move(directory)),
      own_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                        : nullptr),
      appends_((registry != nullptr ? *registry : *own_registry_)
                   .counter("rdcn_journal_appends_total",
                            "Run-journal records appended")),
      replayed_((registry != nullptr ? *registry : *own_registry_)
                    .counter("rdcn_journal_replayed_total",
                             "Run-journal records replayed at startup")),
      corrupt_((registry != nullptr ? *registry : *own_registry_)
                   .counter("rdcn_journal_corrupt_total",
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

Journal::Recovery Journal::recover(std::uint64_t fallback_next_id) {
  Recovery out;
  out.next_id = fallback_next_id;
  if (!enabled()) return out;
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
  // Replay state: admit order preserved so recovered runs re-enqueue in
  // their original admission order.
  std::vector<RecoveredRun> runs;
  std::unordered_map<std::uint64_t, std::size_t> by_id;  ///< id → runs index
  std::unordered_map<std::uint64_t, std::string> finished;  ///< id → status
  std::unordered_map<std::string, std::size_t> streaks;
  std::size_t pos = 0;
  if (bytes.size() >= sizeof(kMagic) &&
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0) {
    pos = sizeof(kMagic);
  } else if (!bytes.empty()) {
    // Wrong magic: nothing after it can be trusted.
    std::cerr << "rdcn_serve: journal: bad magic in " << path
              << ", starting fresh\n";
    out.corrupt += 1;
    corrupt_.inc();
    pos = bytes.size();
  }
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {  // torn frame header
      out.corrupt += 1;
      break;
    }
    const std::uint32_t len = read_u32(bytes, pos);
    const std::uint32_t crc = read_u32(bytes, pos + 4);
    if (len > kMaxPayloadBytes || bytes.size() - pos - 8 < len) {
      out.corrupt += 1;  // truncated tail (or a corrupt length field)
      break;
    }
    const std::string payload = bytes.substr(pos + 8, len);
    if (crc32(payload.data(), payload.size()) != crc) {
      // A bit-flipped record: everything after it has unknown framing,
      // so the replay stops here — the valid prefix is still good.
      out.corrupt += 1;
      break;
    }
    pos += 8 + len;
    out.replayed += 1;

    const std::vector<std::string> t = tokens(payload, 3);
    std::uint64_t id = 0;
    if (t.size() >= 2 && t[0] == "nextid" && parse_u64(t[1], id)) {
      if (id > out.next_id) out.next_id = id;
    } else if (t.size() >= 3 && t[0] == "admit" && parse_u64(t[1], id)) {
      if (by_id.count(id) == 0 && finished.count(id) == 0) {
        by_id.emplace(id, runs.size());
        runs.push_back(RecoveredRun{id, t[2], "anon", 1});
      }
      if (id + 1 > out.next_id) out.next_id = id + 1;
    } else if (t[0] == "admit2") {
      // Re-tokenize: admit2 carries priority + client before the spec.
      const std::vector<std::string> t2 = tokens(payload, 5);
      std::uint64_t priority = 0;
      if (t2.size() >= 5 && parse_u64(t2[1], id) &&
          parse_u64(t2[2], priority) && priority <= 2 &&
          is_valid_client_name(t2[3])) {
        if (by_id.count(id) == 0 && finished.count(id) == 0) {
          by_id.emplace(id, runs.size());
          runs.push_back(
              RecoveredRun{id, t2[4], t2[3], static_cast<int>(priority)});
        }
        if (id + 1 > out.next_id) out.next_id = id + 1;
      }
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
  replayed_.add(out.replayed);
  if (out.corrupt > 0) {
    corrupt_.add(out.corrupt);
    std::cerr << "rdcn_serve: journal: skipped " << out.corrupt
              << " corrupt/torn record(s) at the tail of " << path << "\n";
  }
  for (const RecoveredRun& run : runs)
    if (run.id != 0) out.incomplete.push_back(run);
  out.quarantine.assign(streaks.begin(), streaks.end());
  replay_span.reset();

  // ---- compact ---------------------------------------------------------
  // Rewrite live state only (temp-file + rename, like the disk cache):
  // the log's size is bounded by live state, and the torn tail is gone.
  const obs::ObsSpan compact_span("serve.journal.compact");
  const std::string temp = path + ".tmp";
  std::string fresh(kMagic, sizeof(kMagic));
  fresh += frame("nextid " + std::to_string(out.next_id));
  for (const auto& [spec, streak] : out.quarantine)
    fresh += frame("streak " + std::to_string(streak) + " " + spec);
  for (const RecoveredRun& run : out.incomplete)
    fresh += frame("admit2 " + std::to_string(run.id) + " " +
                   std::to_string(run.priority) + " " + run.client + " " +
                   run.spec);
  const int temp_fd = ::open(temp.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool committed = false;
  if (temp_fd >= 0) {
    std::size_t written = 0;
    while (written < fresh.size()) {
      const ssize_t n = ::write(temp_fd, fresh.data() + written,
                                fresh.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      written += static_cast<std::size_t>(n);
    }
    committed = written == fresh.size() && ::fsync(temp_fd) == 0;
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

void Journal::append(const std::string& payload, bool sync) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;  // recover() not called or the disk is gone
  const std::string framed = frame(payload);
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd_, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A failed append degrades durability, never correctness: the
      // record's run merely recomputes after a crash.
      std::cerr << "rdcn_serve: journal: append failed: "
                << std::strerror(errno) << "\n";
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  appends_.inc();
  if (sync) ::fsync(fd_);
}

void Journal::admitted(std::uint64_t id, const std::string& spec,
                       const std::string& client, int priority) {
  append("admit2 " + std::to_string(id) + " " + std::to_string(priority) +
             " " + client + " " + spec,
         /*sync=*/false);
}

void Journal::terminal(std::uint64_t id, const std::string& status) {
  append("done " + std::to_string(id) + " " + status, /*sync=*/true);
}

void Journal::quarantine_streak(const std::string& spec, std::size_t streak) {
  append("streak " + std::to_string(streak) + " " + spec, /*sync=*/false);
}

void Journal::flush() {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) ::fsync(fd_);
}

}  // namespace rdcn::serve
