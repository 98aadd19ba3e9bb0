// rdcn: the serve daemon's durable run journal (write-ahead log).
//
// A run's lifetime used to be bound to the daemon process: a restart
// forgot every queued/running run, every quarantine streak, and the id
// counter.  The journal closes that gap with an append-only log the
// daemon writes as run state changes and replays at startup — the same
// durability discipline the disk cache uses (temp-file + rename +
// CRC32), applied to in-flight state instead of finished results.
//
// On-disk format — one file, `<dir>/wal.rdj`:
//
//   "RDJ1"            4-byte magic (format version 1)
//   records           back to back, each framed as
//     payload_len     u32 little-endian
//     crc32           u32 LE, IEEE 802.3 polynomial over the payload
//                     (common/crc32.hpp — shared with the disk cache)
//     payload         one ASCII line, no trailing newline
//
// Payload grammar (first token is the record type; specs are canonical
// ScenarioSpec strings and never contain spaces):
//
//   nextid <n>                    id-counter snapshot (ids of journalled
//                                 runs stay unique across restarts)
//   admit <id> <spec>             run admitted to the queue (legacy form;
//                                 replays as client "anon", priority 1)
//   admit2 <id> <priority> <client> <spec>
//                                 run admitted with its fairness identity:
//                                 recovery re-enqueues into the right DRR
//                                 lane and re-charges the client's
//                                 concurrent-run quota
//   done <id> <status>            terminal: ok | cancelled |
//                                 deadline_exceeded | stalled | error
//   streak <n> <spec>             quarantine streak update (0 clears)
//
// Any other record type (e.g. the `start`/`ckpt` records older builds
// wrote) is skipped at replay.
//
// Write policy: records append under one mutex; only terminal records
// (and flush()) fsync — an admit lost to a crash merely loses the run,
// a terminal record lost would recompute it, both safe.  Records are
// appended BEFORE the corresponding wire line goes out (the daemon's
// counter-before-DONE invariant extended to disk), so a client that saw
// ACCEPTED or DONE can trust a restarted daemon to agree.
//
// Recovery: recover() replays the log — records with a bad CRC or a
// truncated frame end the replay (a torn tail, counted, never trusted;
// duplicate terminal records are idempotent) — then compacts: live
// state only (nextid, streaks, incomplete runs) is rewritten to a temp
// file and renamed over the log, so the journal's size is bounded by
// the daemon's live state, not its history.  The daemon re-enqueues the
// incomplete runs (deterministic recompute; results land in the disk
// cache) and restores quarantine streaks.
//
// An empty directory string disables the journal entirely: every method
// returns immediately — zero syscalls on the serve fast path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace rdcn::serve {

class Journal {
 public:
  /// One incomplete run reconstructed by recover().
  struct RecoveredRun {
    std::uint64_t id = 0;
    std::string spec;    ///< canonical spec text (deterministic recompute)
    std::string client = "anon";  ///< fairness lane / quota identity
    int priority = 1;             ///< shed order under brownout (0-2)
  };

  /// Everything replay reconstructs.
  struct Recovery {
    std::uint64_t next_id = 1;  ///< max(nextid record, admitted ids + 1)
    std::vector<RecoveredRun> incomplete;  ///< admitted, no terminal record
    /// Quarantine streaks alive at the crash (spec → consecutive crashes).
    std::vector<std::pair<std::string, std::size_t>> quarantine;
    std::uint64_t replayed = 0;  ///< valid records replayed
    std::uint64_t corrupt = 0;   ///< corrupt/torn tail records skipped
  };

  /// Creates `directory` if missing ("" disables the journal).  Throws
  /// SpecError when it cannot be created.  With `registry` the journal's
  /// counters (rdcn_journal_*) register there even while disabled, so a
  /// metrics scrape always exposes the families; without, they live in a
  /// private one.
  explicit Journal(std::string directory, obs::Registry* registry = nullptr);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool enabled() const noexcept { return !directory_.empty(); }

  /// Replays the log, compacts it to live state, and opens it for
  /// appends.  Call once, before any append.  `fallback_next_id` seeds
  /// the id counter when the log is empty/missing.  Never throws on
  /// corrupt contents — a journal too damaged to read is an empty one.
  Recovery recover(std::uint64_t fallback_next_id = 1);

  // Appends (no-ops while disabled).  terminal() and flush() fsync.
  void admitted(std::uint64_t id, const std::string& spec,
                const std::string& client = "anon", int priority = 1);
  void terminal(std::uint64_t id, const std::string& status);
  void quarantine_streak(const std::string& spec, std::size_t streak);
  void flush();

 private:
  void append(const std::string& payload, bool sync);

  const std::string directory_;
  std::unique_ptr<obs::Registry> own_registry_;  ///< when none was passed
  obs::Counter& appends_;
  obs::Counter& replayed_;
  obs::Counter& corrupt_;
  std::mutex mu_;
  int fd_ = -1;  ///< append handle; opened by recover()
};

}  // namespace rdcn::serve
