#include "serve/results_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "common/param_map.hpp"
#include "obs/span.hpp"

namespace rdcn::serve {

namespace fs = std::filesystem;

namespace {

/// "RDC" and the results version.  Bump the version with every
/// intentional change of a ledger or of the payload format: entries of
/// another version hold results this build would not produce.
constexpr char kMagic[4] = {'R', 'D', 'C', '2'};
constexpr const char* kEntrySuffix = ".rdc";
constexpr const char* kTempSuffix = ".tmp";
/// Entries above this are implausible (a CSV table is kilobytes) and
/// rejected before any allocation — a corrupt length field must not make
/// load() try to slurp 4 GB.
constexpr std::uint32_t kMaxPartBytes = 64u << 20;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string to_hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) out[i] = kDigits[value & 0xf];
  return out;
}

/// Serialized entry bytes for key+payload (the full file contents).
std::string encode_entry(const std::string& key, const std::string& payload) {
  std::string out;
  out.reserve(12 + key.size() + payload.size() + 4);
  out.append(kMagic, sizeof(kMagic));
  append_u32(out, static_cast<std::uint32_t>(key.size()));
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += key;
  out += payload;
  std::uint32_t crc = crc32(key.data(), key.size());
  crc = crc32(payload.data(), payload.size(), crc);
  append_u32(out, crc);
  return out;
}

/// True for an entry of another results version: it starts "RDC" but
/// its version byte differs.  Such an entry is stale, not corrupt.
bool other_version(const std::string& bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         bytes.compare(0, 3, kMagic, 3) == 0 && bytes[3] != kMagic[3];
}

/// Validates one serialized entry; on success fills key/payload.
bool decode_entry(const std::string& bytes, std::string& key,
                  std::string& payload) {
  if (bytes.size() < 16) return false;
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    return false;
  const std::uint32_t key_len = read_u32(bytes, 4);
  const std::uint32_t payload_len = read_u32(bytes, 8);
  if (key_len > kMaxPartBytes || payload_len > kMaxPartBytes) return false;
  const std::uint64_t expected_size =
      12ull + key_len + payload_len + 4ull;
  if (bytes.size() != expected_size) return false;
  key = bytes.substr(12, key_len);
  payload = bytes.substr(12 + key_len, payload_len);
  std::uint32_t crc = crc32(key.data(), key.size());
  crc = crc32(payload.data(), payload.size(), crc);
  return crc == read_u32(bytes, 12 + key_len + payload_len);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

}  // namespace

ResultsCache::ResultsCache(std::size_t capacity, std::string directory,
                           obs::Registry& registry)
    : capacity_(capacity),
      directory_(std::move(directory)),
      hits_(registry.counter("rdcn_serve_cache_hits_total",
                             "In-memory results-cache hits")),
      misses_(registry.counter("rdcn_serve_cache_misses_total",
                               "In-memory results-cache misses")),
      entries_(registry.gauge("rdcn_serve_cache_entries",
                              "In-memory results-cache resident entries")),
      disk_hits_(registry.counter("rdcn_serve_disk_cache_hits_total",
                                  "On-disk results-cache hits")),
      disk_misses_(registry.counter("rdcn_serve_disk_cache_misses_total",
                                    "On-disk results-cache misses")),
      disk_corrupt_(registry.counter("rdcn_serve_disk_cache_corrupt_total",
                                     "Torn/corrupt disk entries skipped")),
      disk_write_failures_(
          registry.counter("rdcn_serve_disk_cache_write_failures_total",
                           "Disk-cache writes dropped on error")),
      disk_entries_(registry.gauge("rdcn_serve_disk_cache_entries",
                                   "Valid disk-cache entries indexed")),
      read_bytes_(registry.counter("rdcn_serve_disk_io_bytes_total",
                                   "Disk-cache bytes moved", {{"op", "read"}})),
      write_bytes_(registry.counter("rdcn_serve_disk_io_bytes_total",
                                    "Disk-cache bytes moved",
                                    {{"op", "write"}})),
      read_seconds_(registry.latency_histogram("rdcn_serve_disk_io_seconds",
                                               "Disk-cache I/O latency",
                                               {{"op", "read"}})),
      write_seconds_(registry.latency_histogram("rdcn_serve_disk_io_seconds",
                                                "Disk-cache I/O latency",
                                                {{"op", "write"}})) {
  if (!persistent()) return;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec)
    throw SpecError("cannot create disk-cache directory '" + directory_ +
                    "': " + ec.message());
  load();
}

std::optional<std::string> ResultsCache::get(const std::string& key) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      hits_.inc();
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
      return it->second->second;
    }
    misses_.inc();
  }
  if (!persistent()) return std::nullopt;
  std::optional<std::string> payload = read_entry(key);
  if (payload) remember(key, *payload);
  return payload;
}

void ResultsCache::put(const std::string& key, const std::string& payload) {
  remember(key, payload);
  if (persistent()) write_entry(key, payload);
}

ResultsCache::Stats ResultsCache::stats() const {
  return Stats{hits_.value(),
               misses_.value(),
               static_cast<std::size_t>(entries_.value()),
               disk_hits_.value(),
               disk_misses_.value(),
               disk_corrupt_.value(),
               disk_write_failures_.value(),
               static_cast<std::size_t>(disk_entries_.value())};
}

void ResultsCache::remember(const std::string& key, std::string payload) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  entries_.set(static_cast<std::int64_t>(lru_.size()));
}

void ResultsCache::load() {
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(directory_, ec)) {
    const std::string path = item.path().string();
    const std::string name = item.path().filename().string();
    if (!item.is_regular_file(ec)) continue;
    if (name.size() >= 4 &&
        name.compare(name.size() - 4, 4, kTempSuffix) == 0) {
      // A crash between temp-write and rename; never visible, just litter.
      fs::remove(item.path(), ec);
      continue;
    }
    if (name.size() < 4 || name.compare(name.size() - 4, 4, kEntrySuffix) != 0)
      continue;  // not ours
    const std::optional<std::string> bytes = read_file(path);
    if (bytes && other_version(*bytes)) {
      fs::remove(item.path(), ec);  // results of another build: stale
      continue;
    }
    std::string key, payload;
    if (!bytes || !decode_entry(*bytes, key, payload)) {
      std::cerr << "rdcn_serve: disk cache: skipping corrupt entry " << path
                << "\n";
      disk_corrupt_.inc();
      fs::remove(item.path(), ec);
      continue;
    }
    files_.emplace(std::move(key), path);
  }
  disk_entries_.set(static_cast<std::int64_t>(files_.size()));
}

std::optional<std::string> ResultsCache::read_entry(const std::string& key) {
  const obs::ObsSpan span("serve.disk_cache.load");
  const std::lock_guard<std::mutex> lock(disk_mu_);
  const auto it = files_.find(key);
  if (it == files_.end()) {
    disk_misses_.inc();
    return std::nullopt;
  }
  const std::uint64_t begin_ns = monotonic_now_ns();
  const std::optional<std::string> bytes = read_file(it->second);
  read_seconds_.observe_ns(monotonic_now_ns() - begin_ns);
  if (bytes) read_bytes_.add(bytes->size());
  std::string stored_key, payload;
  if (!bytes || !decode_entry(*bytes, stored_key, payload) ||
      stored_key != key) {
    // Rotted underneath us since load(); drop it rather than serve junk.
    std::cerr << "rdcn_serve: disk cache: skipping corrupt entry "
              << it->second << "\n";
    disk_corrupt_.inc();
    std::error_code ec;
    fs::remove(it->second, ec);
    files_.erase(it);
    disk_entries_.set(static_cast<std::int64_t>(files_.size()));
    disk_misses_.inc();
    return std::nullopt;
  }
  disk_hits_.inc();
  return payload;
}

void ResultsCache::write_entry(const std::string& key,
                               const std::string& payload) {
  const obs::ObsSpan span("serve.disk_cache.store");
  const std::lock_guard<std::mutex> lock(disk_mu_);
  if (fault::fire("serve.disk_cache.write_fail")) {
    disk_write_failures_.inc();
    return;
  }
  const std::string path =
      directory_ + "/" + to_hex(fnv1a64(key)) + kEntrySuffix;
  const std::string temp = path + kTempSuffix;
  std::string bytes = encode_entry(key, payload);
  // Torn-write fault: commit only a prefix, as if the rename landed but
  // the data never fully hit disk — exactly the corruption load() and
  // read_entry() must survive.
  if (fault::fire("serve.disk_cache.torn_write"))
    bytes.resize(bytes.size() / 2);
  const std::uint64_t begin_ns = monotonic_now_ns();
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::cerr << "rdcn_serve: disk cache: cannot write " << temp << "\n";
      disk_write_failures_.inc();
      std::error_code ec;
      fs::remove(temp, ec);
      return;
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::cerr << "rdcn_serve: disk cache: cannot commit " << path << "\n";
    disk_write_failures_.inc();
    std::error_code ec;
    fs::remove(temp, ec);
    return;
  }
  write_seconds_.observe_ns(monotonic_now_ns() - begin_ns);
  write_bytes_.add(bytes.size());
  files_.insert_or_assign(key, path);
  disk_entries_.set(static_cast<std::int64_t>(files_.size()));
}

}  // namespace rdcn::serve
