// rdcn: the daemon's results store — an LRU in memory and, with a
// directory, a crash-safe entry file per result behind it.
//
// Scenario runs are deterministic functions of their spec (seed included),
// so a completed run's CSV payload can be replayed for any later
// submission of an *equivalent* spec.  Equivalence is textual-after-
// canonicalization: keys are ScenarioSpec::canonical_string(), which sorts
// every component's parameters and drops execution-only fields — so
// "r_bma:b=16,eager" and "r_bma:eager,b=16" hit the same entry.
//
// get() answers from memory, else from disk, and promotes a disk hit into
// memory; put() writes both.  Memory is bounded by entry count with
// least-recently-used eviction.  On disk, one file per entry in a flat
// directory, named by the FNV-1a hash of the key, each laid out as
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
// and counted in Stats::disk_corrupt; the daemon serves everything else.
// An entry of another results version (an older build's results, which a
// ledger or format change has made stale) is deleted on load without a
// log line or a count.  Load validates every entry once and keeps an
// in-memory key → path index, so a disk read is one file read (its CRC
// checked again) and a disk write one write + rename.
//
// Thread-safe.  One mutex guards the LRU and another the disk index and
// its file I/O; neither is held while taking the other, so a memory hit
// never waits for a disk read or write.  Counts live as obs metrics in the
// registry passed in (rdcn_serve_cache_* for memory, where a disk hit is
// one miss; rdcn_serve_disk_* for disk, registered with or without a
// directory); stats() reads them.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace rdcn::serve {

class ResultsCache {
 public:
  /// Keeps up to `capacity` entries in memory (0 keeps none) and, unless
  /// `directory` is "", every entry on disk there: creates the directory
  /// if needed and validates every entry in it.  Throws SpecError when the
  /// directory cannot be created.
  ResultsCache(std::size_t capacity, std::string directory,
               obs::Registry& registry);

  bool persistent() const noexcept { return !directory_.empty(); }

  /// The payload for `key`, now most recently used.  A disk entry
  /// corrupted *after* load is deleted and counted rather than served.
  std::optional<std::string> get(const std::string& key);

  /// Stores (or refreshes) `key`, evicting the least-recently-used memory
  /// entry when at capacity.  A failed disk write is counted, logged and
  /// swallowed — a broken disk degrades the daemon to compute-only, it
  /// doesn't take runs down with it.
  void put(const std::string& key, const std::string& payload);

  struct Stats {
    std::uint64_t hits = 0;  ///< memory
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;
    std::uint64_t disk_corrupt = 0;  ///< torn/corrupt entries dropped
    std::uint64_t disk_write_failures = 0;
    std::size_t disk_entries = 0;  ///< currently indexed valid entries
  };
  Stats stats() const;

 private:
  using Entry = std::pair<std::string, std::string>;  ///< key → payload

  void remember(const std::string& key, std::string payload);
  /// Scans the directory: indexes valid entries, removes stale .tmp
  /// files, deletes + counts corrupt entries.
  void load();
  std::optional<std::string> read_entry(const std::string& key);
  void write_entry(const std::string& key, const std::string& payload);

  const std::size_t capacity_;
  const std::string directory_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Gauge& entries_;
  obs::Counter& disk_hits_;
  obs::Counter& disk_misses_;
  obs::Counter& disk_corrupt_;
  obs::Counter& disk_write_failures_;
  obs::Gauge& disk_entries_;
  obs::Counter& read_bytes_;
  obs::Counter& write_bytes_;
  obs::Histogram& read_seconds_;
  obs::Histogram& write_seconds_;
  std::mutex mu_;  ///< the LRU
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::mutex disk_mu_;  ///< files_ and the entry files
  std::unordered_map<std::string, std::string> files_;  ///< key → path
};

}  // namespace rdcn::serve
