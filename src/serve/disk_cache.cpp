#include "serve/disk_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/clock.hpp"
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

DiskCache::DiskCache(std::string directory, obs::Registry* registry)
    : directory_(std::move(directory)),
      own_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                        : nullptr),
      hits_((registry != nullptr ? *registry : *own_registry_)
                .counter("rdcn_serve_disk_cache_hits_total",
                         "On-disk results-cache hits")),
      misses_((registry != nullptr ? *registry : *own_registry_)
                  .counter("rdcn_serve_disk_cache_misses_total",
                           "On-disk results-cache misses")),
      corrupt_skipped_((registry != nullptr ? *registry : *own_registry_)
                           .counter("rdcn_serve_disk_cache_corrupt_total",
                                    "Torn/corrupt disk entries skipped")),
      write_failures_((registry != nullptr ? *registry : *own_registry_)
                          .counter("rdcn_serve_disk_cache_write_failures_total",
                                   "Disk-cache writes dropped on error")),
      entries_((registry != nullptr ? *registry : *own_registry_)
                   .gauge("rdcn_serve_disk_cache_entries",
                          "Valid disk-cache entries indexed")),
      read_bytes_((registry != nullptr ? *registry : *own_registry_)
                      .counter("rdcn_serve_disk_io_bytes_total",
                               "Disk-cache bytes moved", {{"op", "read"}})),
      write_bytes_((registry != nullptr ? *registry : *own_registry_)
                       .counter("rdcn_serve_disk_io_bytes_total",
                                "Disk-cache bytes moved", {{"op", "write"}})),
      read_seconds_((registry != nullptr ? *registry : *own_registry_)
                        .latency_histogram("rdcn_serve_disk_io_seconds",
                                           "Disk-cache I/O latency",
                                           {{"op", "read"}})),
      write_seconds_((registry != nullptr ? *registry : *own_registry_)
                         .latency_histogram("rdcn_serve_disk_io_seconds",
                                            "Disk-cache I/O latency",
                                            {{"op", "write"}})) {
  if (!enabled()) return;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec)
    throw SpecError("cannot create disk-cache directory '" + directory_ +
                    "': " + ec.message());
  load();
}

void DiskCache::load() {
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
      corrupt_skipped_.inc();
      fs::remove(item.path(), ec);
      continue;
    }
    index_.emplace(std::move(key), path);
  }
  entries_.set(static_cast<std::int64_t>(index_.size()));
}

std::string DiskCache::entry_path(const std::string& key) const {
  return directory_ + "/" + to_hex(fnv1a64(key)) + kEntrySuffix;
}

std::optional<std::string> DiskCache::get(const std::string& key) {
  if (!enabled()) return std::nullopt;
  const obs::ObsSpan span("serve.disk_cache.load");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.inc();
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
    corrupt_skipped_.inc();
    std::error_code ec;
    fs::remove(it->second, ec);
    index_.erase(it);
    entries_.set(static_cast<std::int64_t>(index_.size()));
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  return payload;
}

void DiskCache::put(const std::string& key, const std::string& payload) {
  if (!enabled()) return;
  const obs::ObsSpan span("serve.disk_cache.store");
  const std::lock_guard<std::mutex> lock(mu_);
  if (fault::fire("serve.disk_cache.write_fail")) {
    write_failures_.inc();
    return;
  }
  const std::string path = entry_path(key);
  const std::string temp = path + kTempSuffix;
  std::string bytes = encode_entry(key, payload);
  // Torn-write fault: commit only a prefix, as if the rename landed but
  // the data never fully hit disk — exactly the corruption load() and
  // get() must survive.
  if (fault::fire("serve.disk_cache.torn_write"))
    bytes.resize(bytes.size() / 2);
  const std::uint64_t begin_ns = monotonic_now_ns();
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::cerr << "rdcn_serve: disk cache: cannot write " << temp << "\n";
      write_failures_.inc();
      std::error_code ec;
      fs::remove(temp, ec);
      return;
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::cerr << "rdcn_serve: disk cache: cannot commit " << path << "\n";
    write_failures_.inc();
    std::error_code ec;
    fs::remove(temp, ec);
    return;
  }
  write_seconds_.observe_ns(monotonic_now_ns() - begin_ns);
  write_bytes_.add(bytes.size());
  index_.insert_or_assign(key, path);
  entries_.set(static_cast<std::int64_t>(index_.size()));
}

DiskCache::Stats DiskCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_.value(), misses_.value(), corrupt_skipped_.value(),
               write_failures_.value(), index_.size()};
}

}  // namespace rdcn::serve
