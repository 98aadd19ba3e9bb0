// The serve daemon's durable run journal (serve/journal.hpp): lifecycle
// round-trips across a simulated restart, id-counter persistence,
// compaction down to live state, and the corruption matrix — truncated
// tail, bit-flipped record, bad magic, duplicate terminal records —
// mirroring the disk_cache_test discipline for the write-ahead log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32.hpp"
#include "serve/journal.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::serve;
namespace fs = std::filesystem;

struct JournalTest : ::testing::Test {
  void SetUp() override {
    dir = "/tmp/rdcn_journal_test_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
  }
  void TearDown() override { fs::remove_all(dir); }

  // `<dir>/wal.rdj` is the documented on-disk location (journal.hpp) —
  // the corruption tests forge damage directly in that file.
  std::string wal() const { return dir + "/wal.rdj"; }

  std::string read_wal() const {
    std::ifstream in(wal(), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void write_wal(const std::string& bytes) const {
    fs::create_directories(dir);
    std::ofstream out(wal(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir;
};

TEST_F(JournalTest, DisabledModeIsInert) {
  Journal journal("");
  EXPECT_FALSE(journal.enabled());
  const Journal::Recovery rec = journal.recover(/*fallback_next_id=*/5);
  EXPECT_EQ(rec.next_id, 5u);
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_EQ(rec.corrupt, 0u);
  // Appends are no-ops — nothing may touch the filesystem.
  journal.admitted(1, "a=1");
  journal.terminal(1, "ok");
  journal.flush();
  EXPECT_FALSE(fs::exists(dir));
}

TEST_F(JournalTest, EmptyDirectoryRecoversFresh) {
  Journal journal(dir);
  EXPECT_TRUE(journal.enabled());
  // Appends before recover() are dropped, not crashes.
  journal.admitted(99, "too=early");
  const Journal::Recovery rec = journal.recover(/*fallback_next_id=*/3);
  EXPECT_EQ(rec.next_id, 3u);
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_TRUE(rec.quarantine.empty());
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_EQ(rec.corrupt, 0u);
  EXPECT_TRUE(fs::exists(wal()));  // compaction materialized the log
  EXPECT_FALSE(fs::exists(wal() + ".tmp"));
}

TEST_F(JournalTest, LifecycleRoundTripsAcrossRestart) {
  {
    Journal journal(dir);
    journal.recover();
    journal.admitted(1, "a=1;b=2");
    journal.admitted(2, "c=3");
    journal.terminal(2, "ok");
    journal.quarantine_streak("bad=1", 2);
  }
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.next_id, 3u);
  ASSERT_EQ(rec.incomplete.size(), 1u);
  EXPECT_EQ(rec.incomplete[0].id, 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "a=1;b=2");
  ASSERT_EQ(rec.quarantine.size(), 1u);
  EXPECT_EQ(rec.quarantine[0].first, "bad=1");
  EXPECT_EQ(rec.quarantine[0].second, 2u);
  EXPECT_GE(rec.replayed, 4u);
  EXPECT_EQ(rec.corrupt, 0u);
}

TEST_F(JournalTest, NextIdSurvivesEvenWithNoLiveRuns) {
  {
    Journal journal(dir);
    journal.recover();
    journal.admitted(5, "x=1");
    journal.terminal(5, "ok");
  }
  {
    // First restart: next_id derived from the finished admit.
    Journal journal(dir);
    EXPECT_EQ(journal.recover().next_id, 6u);
  }
  // Second restart: the admit is compacted away — the nextid snapshot
  // alone must carry the counter forward.
  Journal journal(dir);
  const Journal::Recovery rec = journal.recover();
  EXPECT_EQ(rec.next_id, 6u);
  EXPECT_TRUE(rec.incomplete.empty());
}

TEST_F(JournalTest, DuplicateTerminalRecordsAreIdempotent) {
  {
    Journal journal(dir);
    journal.recover();
    journal.admitted(1, "a=1");
    journal.terminal(1, "ok");
    journal.terminal(1, "ok");          // double-done: first wins
    journal.terminal(7, "cancelled");   // done for an unknown id: ignored
    journal.admitted(1, "a=1");         // re-admit after done: ignored
  }
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.corrupt, 0u);
  EXPECT_EQ(rec.next_id, 2u);
}

TEST_F(JournalTest, StreakZeroClearsQuarantineEntry) {
  {
    Journal journal(dir);
    journal.recover();
    journal.quarantine_streak("flaky=1", 2);
    journal.quarantine_streak("flaky=1", 0);
    journal.quarantine_streak("still=bad", 1);
  }
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  ASSERT_EQ(rec.quarantine.size(), 1u);
  EXPECT_EQ(rec.quarantine[0].first, "still=bad");
  EXPECT_EQ(rec.quarantine[0].second, 1u);
}

TEST_F(JournalTest, TruncatedTailLosesOnlyTheTornRecord) {
  {
    Journal journal(dir);
    journal.recover();
    journal.admitted(1, "first=run");
    journal.admitted(2, "second=run");
    journal.flush();
  }
  // Chop into the last record's payload — a torn write at crash time.
  fs::resize_file(wal(), fs::file_size(wal()) - 3);
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.corrupt, 1u);
  ASSERT_EQ(rec.incomplete.size(), 1u);
  EXPECT_EQ(rec.incomplete[0].id, 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "first=run");
  EXPECT_EQ(rec.next_id, 2u);  // the torn admit never happened
}

TEST_F(JournalTest, BitFlippedRecordEndsReplayAtTheFlip) {
  {
    Journal journal(dir);
    journal.recover();
    journal.admitted(1, "keep=me");
    journal.admitted(2, "flip=me");
    journal.admitted(3, "after=flip");
    journal.flush();
  }
  // Flip one payload byte of the middle record; its CRC fails and the
  // replay must stop there — framing after a bad record is untrusted.
  std::string bytes = read_wal();
  const std::size_t pos = bytes.find("flip=me");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x01;
  write_wal(bytes);
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.corrupt, 1u);
  ASSERT_EQ(rec.incomplete.size(), 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "keep=me");
}

TEST_F(JournalTest, OlderStartAndCkptRecordsAreSkipped) {
  // Older builds also wrote `start <id>` and `ckpt <id> <seq>` records.
  // A log forged with them, framed as journal.hpp documents, must recover
  // the same incomplete runs as one without.
  const auto frame = [](const std::string& payload) {
    std::string out;
    for (const std::uint32_t word :
         {static_cast<std::uint32_t>(payload.size()),
          crc32(payload.data(), payload.size())})
      for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((word >> (8 * i)) & 0xff));
    return out + payload;
  };
  write_wal(std::string("RDJ1") + frame("nextid 1") +
            frame("admit2 1 2 alice a=1") + frame("start 1") +
            frame("ckpt 1 3") + frame("admit 2 b=2") + frame("start 2") +
            frame("done 2 ok") + frame("admit2 3 0 bob c=3"));
  Journal journal(dir);
  const Journal::Recovery rec = journal.recover();
  EXPECT_EQ(rec.corrupt, 0u);
  EXPECT_EQ(rec.replayed, 8u);
  EXPECT_EQ(rec.next_id, 4u);
  ASSERT_EQ(rec.incomplete.size(), 2u);
  EXPECT_EQ(rec.incomplete[0].id, 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "a=1");
  EXPECT_EQ(rec.incomplete[0].client, "alice");
  EXPECT_EQ(rec.incomplete[0].priority, 2);
  EXPECT_EQ(rec.incomplete[1].id, 3u);
  EXPECT_EQ(rec.incomplete[1].spec, "c=3");
  EXPECT_EQ(rec.incomplete[1].client, "bob");
  EXPECT_EQ(rec.incomplete[1].priority, 0);
}

TEST_F(JournalTest, BadMagicStartsFreshAndStaysWritable) {
  write_wal("not a journal at all");
  Journal journal(dir);
  const Journal::Recovery rec = journal.recover(/*fallback_next_id=*/4);
  EXPECT_GE(rec.corrupt, 1u);
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.next_id, 4u);
  // The damaged log was compacted over; appends land in a valid file.
  journal.admitted(9, "fresh=1");
  Journal reloaded(dir);
  const Journal::Recovery again = reloaded.recover();
  EXPECT_EQ(again.corrupt, 0u);
  ASSERT_EQ(again.incomplete.size(), 1u);
  EXPECT_EQ(again.incomplete[0].id, 9u);
  EXPECT_EQ(again.next_id, 10u);
}

TEST_F(JournalTest, CompactionBoundsTheLogToLiveState) {
  {
    Journal journal(dir);
    journal.recover();
    for (std::uint64_t id = 1; id <= 50; ++id) {
      journal.admitted(id, "spec=" + std::to_string(id));
      journal.terminal(id, "ok");
    }
  }
  const auto grown = fs::file_size(wal());
  Journal reloaded(dir);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.replayed, 101u);  // nextid + 50 × (admit, done)
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.next_id, 51u);
  // History is gone: the compacted log holds magic + nextid only.
  EXPECT_LT(fs::file_size(wal()), grown / 10);
  // A second replay sees only the compacted live state.
  Journal again(dir);
  EXPECT_EQ(again.recover().replayed, 1u);
}

}  // namespace
