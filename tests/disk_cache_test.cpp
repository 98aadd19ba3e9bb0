// The results store's disk tier (serve/results_cache.hpp): entry
// round-trips, reload across instances (a daemon restart in miniature),
// corruption and truncation survival, every single-byte mutation of an
// entry, temp-file hygiene, torn-write fault injection, the disabled
// mode, memory hits racing disk writes, and the results version pinned
// to the bytes the daemon stores.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/fault.hpp"
#include "paging/factory.hpp"
#include "scenario/scenario.hpp"
#include "serve/results_cache.hpp"
#include "sim/report.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;
namespace fs = std::filesystem;

struct DiskCacheTest : ::testing::Test {
  void SetUp() override {
    dir = "/tmp/rdcn_disk_cache_test_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    fault::disarm_all();
  }
  void TearDown() override {
    fault::disarm_all();
    fs::remove_all(dir);
  }

  std::vector<fs::path> entry_files() const {
    std::vector<fs::path> files;
    for (const auto& item : fs::directory_iterator(dir))
      files.push_back(item.path());
    return files;
  }

  std::string dir;
  obs::Registry registry;
};

TEST_F(DiskCacheTest, Crc32KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Chained calls equal one call over the concatenation.
  const std::uint32_t whole = crc32("abcdef", 6);
  EXPECT_EQ(crc32("def", 3, crc32("abc", 3)), whole);
}

TEST_F(DiskCacheTest, PutGetRoundTrip) {
  ResultsCache cache(0, dir, registry);
  EXPECT_TRUE(cache.persistent());
  EXPECT_FALSE(cache.get("spec-a").has_value());
  cache.put("spec-a", "payload-a\nline2\n");
  const auto hit = cache.get("spec-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-a\nline2\n");
  const ResultsCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_misses, 1u);
  EXPECT_EQ(stats.disk_entries, 1u);
  EXPECT_EQ(stats.disk_corrupt, 0u);
}

TEST_F(DiskCacheTest, PutRefreshesInPlace) {
  ResultsCache cache(0, dir, registry);
  cache.put("k", "old");
  cache.put("k", "new");
  EXPECT_EQ(cache.get("k").value_or(""), "new");
  EXPECT_EQ(cache.stats().disk_entries, 1u);
  EXPECT_EQ(entry_files().size(), 1u);  // no duplicate or leftover files
}

TEST_F(DiskCacheTest, SurvivesReload) {
  {
    ResultsCache cache(0, dir, registry);
    cache.put("spec-a", "payload-a");
    cache.put("spec-b", "payload-b");
  }
  ResultsCache reloaded(0, dir, registry);
  EXPECT_EQ(reloaded.stats().disk_entries, 2u);
  EXPECT_EQ(reloaded.get("spec-a").value_or(""), "payload-a");
  EXPECT_EQ(reloaded.get("spec-b").value_or(""), "payload-b");
  EXPECT_EQ(reloaded.stats().disk_corrupt, 0u);
}

TEST_F(DiskCacheTest, NoTempFilesLeftBehind) {
  ResultsCache cache(0, dir, registry);
  cache.put("a", std::string(100'000, 'x'));
  for (const auto& path : entry_files())
    EXPECT_NE(path.extension(), ".tmp") << path;
}

TEST_F(DiskCacheTest, CorruptEntrySkippedOnLoad) {
  {
    ResultsCache cache(0, dir, registry);
    cache.put("good", "good-payload");
    cache.put("bad", "bad-payload");
  }
  // Flip one payload byte of "bad"'s entry; CRC must catch it.
  bool flipped = false;
  for (const auto& path : entry_files()) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    const std::size_t pos = bytes.find("bad-payload");
    if (pos == std::string::npos) continue;
    bytes[pos] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    flipped = true;
  }
  ASSERT_TRUE(flipped);
  ResultsCache reloaded(0, dir, registry);
  EXPECT_EQ(reloaded.stats().disk_corrupt, 1u);
  EXPECT_EQ(reloaded.stats().disk_entries, 1u);
  EXPECT_EQ(reloaded.get("good").value_or(""), "good-payload");
  EXPECT_FALSE(reloaded.get("bad").has_value());
}

TEST_F(DiskCacheTest, TruncatedEntrySkippedOnLoad) {
  {
    ResultsCache cache(0, dir, registry);
    cache.put("spec", "a payload long enough to truncate meaningfully");
  }
  const auto files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) / 2);
  ResultsCache reloaded(0, dir, registry);
  EXPECT_EQ(reloaded.stats().disk_corrupt, 1u);
  EXPECT_EQ(reloaded.stats().disk_entries, 0u);
  EXPECT_FALSE(reloaded.get("spec").has_value());
}

TEST_F(DiskCacheTest, EntryOfAnotherResultsVersionRemovedOnLoad) {
  // A well-formed entry of results version 1 ("RDC1", lengths, key,
  // payload, valid CRC), as builds before the version stamp wrote them:
  // stale, so it is removed without being served or counted as corrupt.
  fs::create_directories(dir);
  const std::string key = "spec", payload = "3.3124e+06\n";
  const auto append_u32 = [](std::string& out, std::uint32_t value) {
    for (int i = 0; i < 4; ++i) out.push_back(char((value >> (8 * i)) & 0xff));
  };
  std::string bytes = "RDC1";
  append_u32(bytes, static_cast<std::uint32_t>(key.size()));
  append_u32(bytes, static_cast<std::uint32_t>(payload.size()));
  bytes += key + payload;
  append_u32(bytes, crc32(payload.data(), payload.size(),
                          crc32(key.data(), key.size())));
  const fs::path path = fs::path(dir) / "0123456789abcdef.rdc";
  std::ofstream(path, std::ios::binary) << bytes;
  ResultsCache reloaded(0, dir, registry);
  EXPECT_FALSE(reloaded.get(key).has_value());
  EXPECT_EQ(reloaded.stats().disk_corrupt, 0u);
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(DiskCacheTest, ResultsVersionMovesWithTheStoredBytes) {
  // A restarted daemon serves every stored entry of its own results
  // version, so a change to a ledger or to the CSV format must bump the
  // version in the same change.  This pins the pair: the magic an entry
  // starts with, and the CRC-32 of the payloads the daemon stores
  // (Daemon::execute: sim::write_csv of the routing cost) for a tiny run
  // of every registered algorithm and of r_bma on every paging engine.
  const std::vector<std::string> algorithms = {
      "r_bma", "bma", "greedy", "oblivious", "rotor", "so_bma",
      "offline_dynamic"};
  const std::vector<std::string> engines = {
      "marking", "lru", "fifo", "clock", "random", "flush_when_full", "lfu",
      "arc"};
  // A newly registered name joins the list, and moves the fingerprint.
  EXPECT_EQ(scenario::AlgorithmRegistry::instance().names().size(),
            algorithms.size());
  EXPECT_EQ(paging::engine_names().size(), engines.size());
  std::vector<std::string> columns = algorithms;
  for (const std::string& engine : engines)
    columns.push_back("r_bma:engine=" + engine);

  std::uint32_t fingerprint = 0;
  for (const std::string& column : columns) {
    const scenario::ScenarioResult result =
        scenario::run_scenario(scenario::ScenarioSpec::parse(
            "workload=zipf:skew=1.2;algorithms=" + column +
            ";b=2,4;racks=8;requests=2000;trials=2;checkpoints=2;seed=5;"
            "threads=1"));
    std::ostringstream csv;
    sim::write_csv(csv, result.runs, sim::Metric::kRoutingCost);
    const std::string bytes = csv.str();
    fingerprint = crc32(bytes.data(), bytes.size(), fingerprint);
  }

  ResultsCache cache(0, dir, registry);
  cache.put("spec", "payload\n");
  const std::vector<fs::path> files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  std::string magic(4, '\0');
  std::ifstream(files[0], std::ios::binary).read(magic.data(), 4);

  const std::pair<std::string, std::uint32_t> pinned{"RDC2", 0x423c8608u};
  EXPECT_EQ(std::make_pair(magic, fingerprint), pinned)
      << "the stored bytes moved (fingerprint 0x" << std::hex << fingerprint
      << "): a ledger or the CSV format changed.  Bump kMagic in "
         "serve/results_cache.cpp and pin the new magic together with the "
         "new fingerprint here, or a restarted daemon serves stale entries.";
}

TEST_F(DiskCacheTest, StaleTempFileRemovedOnLoad) {
  fs::create_directories(dir);
  std::ofstream(dir + "/deadbeef.rdc.tmp") << "half-written";
  ResultsCache cache(0, dir, registry);
  EXPECT_EQ(cache.stats().disk_entries, 0u);
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);  // never visible = not torn
  EXPECT_TRUE(entry_files().empty());
}

TEST_F(DiskCacheTest, ForeignFilesIgnored) {
  fs::create_directories(dir);
  std::ofstream(dir + "/README.txt") << "not a cache entry";
  ResultsCache cache(0, dir, registry);
  EXPECT_EQ(cache.stats().disk_entries, 0u);
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));
}

TEST_F(DiskCacheTest, TornWriteFaultYieldsSkippedEntry) {
  {
    ResultsCache cache(0, dir, registry);
    cache.put("ok", "ok-payload");
    fault::arm("serve.disk_cache.torn_write", {.times = 1});
    cache.put("torn", "this payload will be half-committed");
    fault::disarm_all();
  }
  // The torn entry was *committed* (renamed into place) but fails CRC at
  // the next startup: skipped and counted, the good entry untouched.
  ResultsCache reloaded(0, dir, registry);
  EXPECT_EQ(reloaded.stats().disk_corrupt, 1u);
  EXPECT_EQ(reloaded.stats().disk_entries, 1u);
  EXPECT_EQ(reloaded.get("ok").value_or(""), "ok-payload");
  EXPECT_FALSE(reloaded.get("torn").has_value());
}

TEST_F(DiskCacheTest, WriteFailFaultCountsAndDegrades) {
  ResultsCache cache(0, dir, registry);
  fault::arm("serve.disk_cache.write_fail", {.times = 1});
  cache.put("dropped", "never lands");
  EXPECT_FALSE(cache.get("dropped").has_value());
  EXPECT_EQ(cache.stats().disk_write_failures, 1u);
  cache.put("kept", "lands fine");  // fault exhausted
  EXPECT_EQ(cache.get("kept").value_or(""), "lands fine");
}

TEST_F(DiskCacheTest, DisabledModeIsInert) {
  ResultsCache cache(0, "", registry);
  EXPECT_FALSE(cache.persistent());
  cache.put("a", "A");
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().disk_entries, 0u);
}

TEST_F(DiskCacheTest, MutatedEntriesAreNeverServed) {
  // Every truncation and every single-byte change (XOR 0x01) of one small
  // entry, each reloaded beside an intact entry.
  {
    ResultsCache cache(0, dir, registry);
    cache.put("spec-a", "1,2\n");
    cache.put("spec-b", "payload-b\n");
  }
  fs::path a_path, b_path;
  std::string a_bytes, b_bytes;
  for (const auto& path : entry_files()) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const bool a = bytes.find("spec-a") != std::string::npos;
    (a ? a_path : b_path) = path;
    (a ? a_bytes : b_bytes) = std::move(bytes);
  }
  ASSERT_FALSE(a_bytes.empty());
  ASSERT_FALSE(b_bytes.empty());
  const auto reload = [&](const std::string& mutant, bool other_version) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(b_path, std::ios::binary) << b_bytes;
    std::ofstream(a_path, std::ios::binary) << mutant;
    obs::Registry fresh;
    ResultsCache cache(4, dir, fresh);
    EXPECT_FALSE(cache.get("spec-a").has_value());
    EXPECT_EQ(cache.get("spec-b").value_or(""), "payload-b\n");
    // Another results version is stale, not corrupt: removed uncounted.
    EXPECT_EQ(cache.stats().disk_corrupt, other_version ? 0u : 1u);
    EXPECT_EQ(cache.stats().disk_entries, 1u);
    EXPECT_FALSE(fs::exists(a_path));
    for (const auto& path : entry_files())
      EXPECT_NE(path.extension(), ".tmp") << path;
  };
  for (std::size_t size = 0; size < a_bytes.size(); ++size) {
    SCOPED_TRACE("truncated to " + std::to_string(size));
    reload(a_bytes.substr(0, size), false);
  }
  for (std::size_t at = 0; at < a_bytes.size(); ++at) {
    SCOPED_TRACE("byte " + std::to_string(at) + " ^ 0x01");
    std::string mutant = a_bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x01);
    reload(mutant, /*other_version=*/at == 3);  // "RDC" + version byte
  }
}

TEST_F(DiskCacheTest, MemoryHitsRaceDiskWrites) {
  // Readers hit the memory tier while a writer puts new entries, each
  // also written to disk.  A hot entry the writer evicts from memory comes
  // back from disk, so every read is served, and right.
  ResultsCache cache(16, dir, registry);
  const auto payload = [](const std::string& key) { return key + "\n"; };
  for (int k = 0; k < 8; ++k)
    cache.put("hot-" + std::to_string(k), payload("hot-" + std::to_string(k)));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t mine = 0;
      do {
        for (int k = 0; k < 8; ++k, ++mine) {
          const std::string key = "hot-" + std::to_string(k);
          EXPECT_EQ(cache.get(key).value_or(""), payload(key));
        }
      } while (!done.load());
      reads += mine;
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 100; ++i)
      cache.put("cold-" + std::to_string(i), payload(std::to_string(i)));
    done = true;
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  const ResultsCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, reads.load());
  EXPECT_EQ(stats.disk_hits, stats.misses);  // each miss served from disk
  EXPECT_EQ(stats.disk_misses, 0u);
  EXPECT_EQ(stats.disk_entries, 108u);
  EXPECT_EQ(stats.disk_write_failures, 0u);
}

}  // namespace
