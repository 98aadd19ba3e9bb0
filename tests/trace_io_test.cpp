// Round-trip and format tests for trace CSV I/O (trace/trace_io.hpp).
#include <gtest/gtest.h>

#include <sstream>

#include "common/param_map.hpp"  // SpecError
#include "common/rng.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::trace;

TEST(TraceIo, RoundTripPreservesEverything) {
  Xoshiro256 rng(1);
  const Trace original = materialize(*stream_uniform(15, 500, rng));
  std::stringstream buffer;
  write_csv(original, buffer);
  const Trace loaded = read_csv(buffer);
  EXPECT_EQ(loaded.num_racks(), original.num_racks());
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIo, HeaderCarriesMetadata) {
  Trace t(9, "myname");
  t.push_back(Request::make(1, 2));
  std::stringstream buffer;
  write_csv(t, buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# racks=9 name=myname"), std::string::npos);
}

TEST(TraceIo, MissingHeaderInfersUniverse) {
  std::stringstream in("0,5\n3,4\n");
  const Trace t = read_csv(in);
  EXPECT_EQ(t.num_racks(), 6u);  // max id 5 -> 6 racks
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], Request::make(0, 5));
}

TEST(TraceIo, NormalizesPairOrder) {
  std::stringstream in("7,2\n");
  const Trace t = read_csv(in);
  EXPECT_EQ(t[0].u, 2u);
  EXPECT_EQ(t[0].v, 7u);
}

TEST(TraceIo, SkipsBlankLines) {
  std::stringstream in("# racks=4 name=x\n\n0,1\n\n2,3\n");
  const Trace t = read_csv(in);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TraceIo, RejectsTrailingGarbageAndSigns) {
  // Regression: the std::stoull-based importer silently truncated "12abc"
  // to 12 and accepted negative ids via unsigned wrap-around.  Every
  // malformed field must be a SpecError naming the source and line.
  for (const char* body : {"12abc,3", "1,3.5", "-1,3", "2,+4", "1,", ",2"}) {
    std::stringstream in(std::string("0,1\n") + body + "\n");
    try {
      read_csv(in, "bad.csv");
      FAIL() << "accepted malformed line: " << body;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("bad.csv:2"), std::string::npos)
          << body << " -> " << e.what();
    }
  }
}

TEST(TraceIo, RejectsMissingComma) {
  std::stringstream in("07\n");
  try {
    read_csv(in, "x.csv");
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("x.csv:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("src,dst"), std::string::npos);
  }
}

TEST(TraceIo, RejectsSelfLoops) {
  std::stringstream in("3,3\n");
  EXPECT_THROW(read_csv(in), SpecError);
}

TEST(TraceIo, RejectsRackIdOverflow) {
  // Rack is 32-bit; ids beyond it must error, not wrap.
  std::stringstream in("0,4294967296\n");
  try {
    read_csv(in, "big.csv");
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(TraceIo, RejectsMalformedHeaderRacks) {
  std::stringstream in("# racks=12q name=x\n0,1\n");
  EXPECT_THROW(read_csv(in), SpecError);
}

TEST(TraceIo, RejectsRackBeyondDeclaredUniverse) {
  std::stringstream in("# racks=4\n0,7\n");
  EXPECT_THROW(read_csv(in), SpecError);
}

TEST(TraceIo, UnopenablePathIsSpecError) {
  try {
    read_csv_file("/nonexistent/dir/trace.csv");
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/trace.csv"),
              std::string::npos);
  }
}

TEST(TraceIo, FileRoundTrip) {
  Xoshiro256 rng(2);
  const Trace original = materialize(*stream_uniform(8, 100, rng));
  const std::string path = ::testing::TempDir() + "/rdcn_trace_test.csv";
  write_csv_file(original, path);
  const Trace loaded = read_csv_file(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(loaded[i], original[i]);
}

}  // namespace
