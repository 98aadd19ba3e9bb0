// The persistent on-disk results cache (serve/disk_cache.hpp): entry
// round-trips, reload across instances (a daemon restart in miniature),
// corruption and truncation survival, temp-file hygiene, torn-write
// fault injection, and the disabled mode.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/fault.hpp"
#include "serve/disk_cache.hpp"

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
  DiskCache cache(dir);
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.get("spec-a").has_value());
  cache.put("spec-a", "payload-a\nline2\n");
  const auto hit = cache.get("spec-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-a\nline2\n");
  const DiskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
}

TEST_F(DiskCacheTest, PutRefreshesInPlace) {
  DiskCache cache(dir);
  cache.put("k", "old");
  cache.put("k", "new");
  EXPECT_EQ(cache.get("k").value_or(""), "new");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(entry_files().size(), 1u);  // no duplicate or leftover files
}

TEST_F(DiskCacheTest, SurvivesReload) {
  {
    DiskCache cache(dir);
    cache.put("spec-a", "payload-a");
    cache.put("spec-b", "payload-b");
  }
  DiskCache reloaded(dir);
  EXPECT_EQ(reloaded.stats().entries, 2u);
  EXPECT_EQ(reloaded.get("spec-a").value_or(""), "payload-a");
  EXPECT_EQ(reloaded.get("spec-b").value_or(""), "payload-b");
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 0u);
}

TEST_F(DiskCacheTest, NoTempFilesLeftBehind) {
  DiskCache cache(dir);
  cache.put("a", std::string(100'000, 'x'));
  for (const auto& path : entry_files())
    EXPECT_NE(path.extension(), ".tmp") << path;
}

TEST_F(DiskCacheTest, CorruptEntrySkippedOnLoad) {
  {
    DiskCache cache(dir);
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
  DiskCache reloaded(dir);
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 1u);
  EXPECT_EQ(reloaded.stats().entries, 1u);
  EXPECT_EQ(reloaded.get("good").value_or(""), "good-payload");
  EXPECT_FALSE(reloaded.get("bad").has_value());
}

TEST_F(DiskCacheTest, TruncatedEntrySkippedOnLoad) {
  {
    DiskCache cache(dir);
    cache.put("spec", "a payload long enough to truncate meaningfully");
  }
  const auto files = entry_files();
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], fs::file_size(files[0]) / 2);
  DiskCache reloaded(dir);
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 1u);
  EXPECT_EQ(reloaded.stats().entries, 0u);
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
  DiskCache reloaded(dir);
  EXPECT_FALSE(reloaded.get(key).has_value());
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 0u);
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(DiskCacheTest, StaleTempFileRemovedOnLoad) {
  fs::create_directories(dir);
  std::ofstream(dir + "/deadbeef.rdc.tmp") << "half-written";
  DiskCache cache(dir);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().corrupt_skipped, 0u);  // never visible = not torn
  EXPECT_TRUE(entry_files().empty());
}

TEST_F(DiskCacheTest, ForeignFilesIgnored) {
  fs::create_directories(dir);
  std::ofstream(dir + "/README.txt") << "not a cache entry";
  DiskCache cache(dir);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().corrupt_skipped, 0u);
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));
}

TEST_F(DiskCacheTest, TornWriteFaultYieldsSkippedEntry) {
  {
    DiskCache cache(dir);
    cache.put("ok", "ok-payload");
    fault::arm("serve.disk_cache.torn_write", {.times = 1});
    cache.put("torn", "this payload will be half-committed");
    fault::disarm_all();
  }
  // The torn entry was *committed* (renamed into place) but fails CRC at
  // the next startup: skipped and counted, the good entry untouched.
  DiskCache reloaded(dir);
  EXPECT_EQ(reloaded.stats().corrupt_skipped, 1u);
  EXPECT_EQ(reloaded.stats().entries, 1u);
  EXPECT_EQ(reloaded.get("ok").value_or(""), "ok-payload");
  EXPECT_FALSE(reloaded.get("torn").has_value());
}

TEST_F(DiskCacheTest, WriteFailFaultCountsAndDegrades) {
  DiskCache cache(dir);
  fault::arm("serve.disk_cache.write_fail", {.times = 1});
  cache.put("dropped", "never lands");
  EXPECT_FALSE(cache.get("dropped").has_value());
  EXPECT_EQ(cache.stats().write_failures, 1u);
  cache.put("kept", "lands fine");  // fault exhausted
  EXPECT_EQ(cache.get("kept").value_or(""), "lands fine");
}

TEST_F(DiskCacheTest, DisabledModeIsInert) {
  DiskCache cache("");
  EXPECT_FALSE(cache.enabled());
  cache.put("a", "A");
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
