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
  obs::Registry registry;
};

TEST_F(JournalTest, DisabledModeIsInert) {
  Journal journal("", registry);
  EXPECT_FALSE(journal.enabled());
  const Journal::Recovery rec = journal.recover(/*fallback_next_id=*/5);
  EXPECT_EQ(rec.next_id, 5u);
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_EQ(rec.corrupt, 0u);
  // Appends are no-ops — nothing may touch the filesystem.
  journal.append(Journal::admit_record(1, "a=1", 0));
  journal.append(Journal::done_record(1, "ok"));
  journal.flush();
  journal.flush();
  EXPECT_FALSE(fs::exists(dir));
}

TEST_F(JournalTest, EmptyDirectoryRecoversFresh) {
  Journal journal(dir, registry);
  EXPECT_TRUE(journal.enabled());
  // Appends before recover() are dropped, not crashes.
  journal.append(Journal::admit_record(99, "too=early", 0));
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
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::admit_record(1, "a=1;b=2", 0));
    journal.append(Journal::admit_record(2, "c=3", 0));
    journal.append(Journal::done_record(2, "ok"));
    journal.flush();
    journal.append(Journal::streak_record("bad=1", 2));
  }
  Journal reloaded(dir, registry);
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
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::admit_record(5, "x=1", 0));
    journal.append(Journal::done_record(5, "ok"));
    journal.flush();
  }
  {
    // First restart: next_id derived from the finished admit.
    Journal journal(dir, registry);
    EXPECT_EQ(journal.recover().next_id, 6u);
  }
  // Second restart: the admit is compacted away — the nextid snapshot
  // alone must carry the counter forward.
  Journal journal(dir, registry);
  const Journal::Recovery rec = journal.recover();
  EXPECT_EQ(rec.next_id, 6u);
  EXPECT_TRUE(rec.incomplete.empty());
}

TEST_F(JournalTest, DuplicateTerminalRecordsAreIdempotent) {
  {
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::admit_record(1, "a=1", 0));
    journal.append(Journal::done_record(1, "ok"));
    journal.flush();
    // Double-done: first wins.
    journal.append(Journal::done_record(1, "ok"));
    journal.flush();
    // Done for an unknown id: ignored.
    journal.append(Journal::done_record(7, "cancelled"));
    journal.flush();
    // Re-admit after done: ignored.
    journal.append(Journal::admit_record(1, "a=1", 0));
  }
  Journal reloaded(dir, registry);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.corrupt, 0u);
  EXPECT_EQ(rec.next_id, 2u);
}

TEST_F(JournalTest, StreakZeroClearsQuarantineEntry) {
  {
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::streak_record("flaky=1", 2));
    journal.append(Journal::streak_record("flaky=1", 0));
    journal.append(Journal::streak_record("still=bad", 1));
  }
  Journal reloaded(dir, registry);
  const Journal::Recovery rec = reloaded.recover();
  ASSERT_EQ(rec.quarantine.size(), 1u);
  EXPECT_EQ(rec.quarantine[0].first, "still=bad");
  EXPECT_EQ(rec.quarantine[0].second, 1u);
}

TEST_F(JournalTest, TruncatedTailLosesOnlyTheTornRecord) {
  {
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::admit_record(1, "first=run", 0));
    journal.append(Journal::admit_record(2, "second=run", 0));
    journal.flush();
  }
  // Chop into the last record's payload — a torn write at crash time.
  fs::resize_file(wal(), fs::file_size(wal()) - 3);
  Journal reloaded(dir, registry);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.corrupt, 1u);
  ASSERT_EQ(rec.incomplete.size(), 1u);
  EXPECT_EQ(rec.incomplete[0].id, 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "first=run");
  EXPECT_EQ(rec.next_id, 2u);  // the torn admit never happened
}

TEST_F(JournalTest, BitFlippedRecordEndsReplayAtTheFlip) {
  {
    Journal journal(dir, registry);
    journal.recover();
    journal.append(Journal::admit_record(1, "keep=me", 0));
    journal.append(Journal::admit_record(2, "flip=me", 0));
    journal.append(Journal::admit_record(3, "after=flip", 0));
    journal.flush();
  }
  // Flip one payload byte of the middle record; its CRC fails and the
  // replay must stop there — framing after a bad record is untrusted.
  std::string bytes = read_wal();
  const std::size_t pos = bytes.find("flip=me");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x01;
  write_wal(bytes);
  Journal reloaded(dir, registry);
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
  Journal journal(dir, registry);
  const Journal::Recovery rec = journal.recover();
  EXPECT_EQ(rec.corrupt, 0u);
  EXPECT_EQ(rec.replayed, 8u);
  EXPECT_EQ(rec.next_id, 4u);
  ASSERT_EQ(rec.incomplete.size(), 2u);
  EXPECT_EQ(rec.incomplete[0].id, 1u);
  EXPECT_EQ(rec.incomplete[0].spec, "a=1");
  EXPECT_EQ(rec.incomplete[1].id, 3u);
  EXPECT_EQ(rec.incomplete[1].spec, "c=3");
}

TEST_F(JournalTest, Admit3RecordsReplayTheirDeadline) {
  // admit3 carries the RUN's deadline_ms; admit2 and admit replay with
  // none.  Compaction writes every run back as admit3, priority 1 and
  // client anon, so the deadline also survives a second restart.
  const Journal::Recovery rec =
      Journal::replay({"admit3 4 2 alice 1500 a=1", "admit2 5 1 bob b=2",
                       "admit 6 c=3", "admit3 7 0 carol 0 d=4"});
  ASSERT_EQ(rec.incomplete.size(), 4u);
  EXPECT_EQ(rec.incomplete[0].spec, "a=1");
  EXPECT_EQ(rec.incomplete[0].deadline_ms, 1500u);
  EXPECT_EQ(rec.incomplete[1].deadline_ms, 0u);
  EXPECT_EQ(rec.incomplete[2].deadline_ms, 0u);
  EXPECT_EQ(rec.incomplete[3].spec, "d=4");
  EXPECT_EQ(rec.incomplete[3].deadline_ms, 0u);
  EXPECT_EQ(Journal::compact(rec),
            (std::vector<std::string>{
                "nextid 8", "admit3 4 1 anon 1500 a=1",
                "admit3 5 1 anon 0 b=2", "admit3 6 1 anon 0 c=3",
                "admit3 7 1 anon 0 d=4"}));
}

TEST_F(JournalTest, Admit2And3RecordsNeedAValidPriorityAndClient) {
  // Replay keeps the checks older builds made of the two fields it now
  // ignores: a priority of 0-2 and a client of 1-64 chars from
  // [A-Za-z0-9._-].  A record that fails them is skipped.
  const std::string name64(64, 'n');
  const Journal::Recovery rec = Journal::replay(
      {"admit3 1 0 team-7.batch_2 0 a=1", "admit3 2 2 " + name64 + " 0 b=2",
       "admit2 3 1 x c=3", "admit3 4 3 anon 0 d=4",
       "admit3 5 1 b@d 0 e=5", "admit3 6 1 " + name64 + "n 0 f=6",
       "admit2 7 -1 anon g=7", "admit2 8 1 anon", "admit3 9 1 anon x i=9"});
  ASSERT_EQ(rec.incomplete.size(), 3u);
  EXPECT_EQ(rec.incomplete[0].spec, "a=1");
  EXPECT_EQ(rec.incomplete[1].spec, "b=2");
  EXPECT_EQ(rec.incomplete[2].spec, "c=3");
}

TEST_F(JournalTest, BadMagicStartsFreshAndStaysWritable) {
  write_wal("not a journal at all");
  Journal journal(dir, registry);
  const Journal::Recovery rec = journal.recover(/*fallback_next_id=*/4);
  EXPECT_GE(rec.corrupt, 1u);
  EXPECT_EQ(rec.replayed, 0u);
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.next_id, 4u);
  // The damaged log was compacted over; appends land in a valid file.
  journal.append(Journal::admit_record(9, "fresh=1", 0));
  Journal reloaded(dir, registry);
  const Journal::Recovery again = reloaded.recover();
  EXPECT_EQ(again.corrupt, 0u);
  ASSERT_EQ(again.incomplete.size(), 1u);
  EXPECT_EQ(again.incomplete[0].id, 9u);
  EXPECT_EQ(again.next_id, 10u);
}

TEST_F(JournalTest, CompactionBoundsTheLogToLiveState) {
  {
    Journal journal(dir, registry);
    journal.recover();
    for (std::uint64_t id = 1; id <= 50; ++id) {
      journal.append(
          Journal::admit_record(id, "spec=" + std::to_string(id), 0));
      journal.append(Journal::done_record(id, "ok"));
      journal.flush();
    }
  }
  const auto grown = fs::file_size(wal());
  Journal reloaded(dir, registry);
  const Journal::Recovery rec = reloaded.recover();
  EXPECT_EQ(rec.replayed, 101u);  // nextid + 50 × (admit, done)
  EXPECT_TRUE(rec.incomplete.empty());
  EXPECT_EQ(rec.next_id, 51u);
  // History is gone: the compacted log holds magic + nextid only.
  EXPECT_LT(fs::file_size(wal()), grown / 10);
  // A second replay sees only the compacted live state.
  Journal again(dir, registry);
  EXPECT_EQ(again.recover().replayed, 1u);
}

}  // namespace
