// rdcn: the serve daemon's durable run journal (write-ahead log).
//
// An append-only log of run state that the daemon writes as runs change
// and replays at startup, so queued and running runs, quarantine streaks
// and the id counter survive a restart.  It uses the disk cache's
// discipline (temp-file + rename + CRC32) for in-flight state.
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
//   nextid <n>                    id lease or counter snapshot: every id
//                                 handed out (a cache hit's too) is below
//                                 the largest n, so ids stay unique across
//                                 restarts
//   admit3 <id> <priority> <client> <deadline_ms> <spec>
//                                 run admitted to the queue with the RUN's
//                                 deadline_ms (0 = none), which recovery
//                                 re-arms, counted from the restart.  The
//                                 writer puts priority 1 and client
//                                 "anon"; replay checks both fields (a
//                                 priority of 0-2, a client of 1-64 chars
//                                 from [A-Za-z0-9._-]) and ignores them,
//                                 as it does in the legacy forms:
//   admit2 <id> <priority> <client> <spec>    (no deadline)
//   admit <id> <spec>                         (no deadline)
//   done <id> <status>            terminal: ok | cancelled |
//                                 deadline_exceeded | stalled | error
//   streak <n> <spec>             quarantine streak update (0 clears)
//
// Any other record type (e.g. the `start`/`ckpt` records older builds
// wrote) is skipped at replay.
//
// Write policy: serve::Lifecycle emits the records; the daemon appends
// them under its mutex before it queues the wire lines they back, and
// fsyncs a terminal record (flush()) before it queues that DONE.  An admit
// lost to a crash merely loses the run, a terminal record lost would
// recompute it — both safe.
//
// Recovery: recover() reads the log's valid prefix — a bad CRC or a
// truncated frame ends it (a torn tail, counted, never trusted) — and
// replay()s the payloads, which needs no file; duplicate terminal records
// are idempotent.  It then rewrites the log as compact()'s live state
// (nextid, streaks, incomplete runs) via a temp file and a rename, so the
// log is bounded by live state, not history.
//
// An empty directory string disables the journal entirely: every method
// returns immediately — zero syscalls on the serve fast path.
#pragma once

#include <cstdint>
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
    std::uint64_t deadline_ms = 0;  ///< the RUN's deadline (0 = none)
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

  /// Creates `directory` if missing ("" disables the journal); throws
  /// SpecError when it cannot.  The rdcn_journal_* counters register in
  /// `registry`, even while disabled.
  Journal(std::string directory, obs::Registry& registry);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool enabled() const noexcept { return !directory_.empty(); }

  /// Replays the log, compacts it to live state, and opens it for
  /// appends.  Call once, before any append.  `fallback_next_id` seeds
  /// the id counter when the log is empty/missing.  Never throws on
  /// corrupt contents — a journal too damaged to read is an empty one.
  Recovery recover(std::uint64_t fallback_next_id = 1);

  /// Record payloads in the grammar above (serve/lifecycle.hpp emits
  /// them).
  static std::string nextid_record(std::uint64_t next_id);
  static std::string admit_record(std::uint64_t id, const std::string& spec,
                                  std::uint64_t deadline_ms);
  static std::string done_record(std::uint64_t id, const std::string& status);
  static std::string streak_record(const std::string& spec,
                                   std::size_t streak);
  /// Replays record payloads in log order, without file I/O.
  static Recovery replay(const std::vector<std::string>& payloads,
                         std::uint64_t fallback_next_id = 1);
  /// The live state of `recovery` as records: what compaction leaves.
  static std::vector<std::string> compact(const Recovery& recovery);

  /// Appends one record payload (no fsync; flush() syncs).  A no-op while
  /// disabled or before recover().
  void append(const std::string& payload);
  /// fsyncs what was appended.  The serve.journal.stall fault point
  /// (common/fault.hpp) holds it 250 ms first.
  void flush();

 private:
  const std::string directory_;
  obs::Counter& appends_;
  obs::Counter& replayed_;
  obs::Counter& corrupt_;
  std::mutex mu_;
  int fd_ = -1;  ///< append handle; opened by recover()
};

}  // namespace rdcn::serve
