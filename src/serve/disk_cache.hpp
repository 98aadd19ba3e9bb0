// rdcn: the daemon's persistent on-disk results cache.
//
// The in-memory ResultsCache dies with the process; this store makes
// completed scenario results survive a daemon restart.  One file per
// entry in a flat directory, named by the FNV-1a hash of the key
// (ScenarioSpec::canonical_string()), each laid out as
//
//   "RDC2"            4-byte magic: "RDC" and the results version (2)
//   key_len           u32 little-endian
//   payload_len       u32 little-endian
//   key bytes         the canonical spec string (verified on read —
//                     filename hashes are a lookup hint, not the identity)
//   payload bytes     the run's CSV table, verbatim
//   crc32             u32 LE, IEEE 802.3 polynomial over key+payload
//
// Durability policy: writes go to "<name>.tmp" and rename(2) into place,
// so a crash mid-write leaves at worst a stale .tmp (removed on the next
// load) — never a half-visible entry.  A *torn* committed entry (rename
// reordered before its data reached disk, or plain corruption) fails the
// magic/length/CRC checks at startup: it is logged to stderr, deleted,
// and counted in Stats::corrupt_skipped; the daemon serves everything
// else.  An entry of another results version (an older build's results,
// which a ledger or format change has made stale) is deleted on load
// without a log line or a count.  Load validates every entry once and
// keeps an in-memory key → path index, so get() is one file read and
// put() one write + rename.
//
// Thread-safe (one mutex — the daemon touches it once per submission and
// once per completed run).  An empty directory string disables the cache
// entirely: every get misses, every put is dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace rdcn::serve {

/// The checksum guarding disk-cache entries (shared with the run
/// journal — see common/crc32.hpp).  Kept in this namespace for the
/// tests that forge/corrupt entries.
using rdcn::crc32;

class DiskCache {
 public:
  /// Opens (creating if needed) the store under `directory` and validates
  /// every entry; "" disables the cache.  Throws SpecError when the
  /// directory cannot be created.  With `registry` the cache's counters
  /// and I/O histograms register there (rdcn_serve_disk_*); without,
  /// they live in a private one — stats() reads the same metrics either
  /// way (single source of truth).
  explicit DiskCache(std::string directory,
                     obs::Registry* registry = nullptr);

  bool enabled() const noexcept { return !directory_.empty(); }

  /// Reads the payload for `key`, re-verifying the entry's CRC (a file
  /// corrupted *after* load is skipped, deleted, and counted rather than
  /// served).
  std::optional<std::string> get(const std::string& key);

  /// Persists (or refreshes) `key` via temp-file + rename.  Failures are
  /// counted, logged, and swallowed — a broken disk degrades the daemon
  /// to compute-only, it doesn't take runs down with it.
  void put(const std::string& key, const std::string& payload);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt_skipped = 0;  ///< torn/corrupt entries dropped
    std::uint64_t write_failures = 0;
    std::size_t entries = 0;  ///< currently indexed valid entries
  };
  Stats stats() const;

 private:
  /// Scans the directory: indexes valid entries, removes stale .tmp
  /// files, deletes + counts corrupt entries.
  void load();

  std::string entry_path(const std::string& key) const;

  const std::string directory_;
  std::unique_ptr<obs::Registry> own_registry_;  ///< when none was passed
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& corrupt_skipped_;
  obs::Counter& write_failures_;
  obs::Gauge& entries_;
  obs::Counter& read_bytes_;
  obs::Counter& write_bytes_;
  obs::Histogram& read_seconds_;
  obs::Histogram& write_seconds_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> index_;  ///< key → path
};

}  // namespace rdcn::serve
