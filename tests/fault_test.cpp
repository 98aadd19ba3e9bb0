// The fault-injection subsystem (common/fault.hpp): trigger semantics
// (after/times/probability), spec-string and env arming, counters, and
// the inert-by-default contract the request path relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/fault.hpp"
#include "common/param_map.hpp"

namespace {

using namespace rdcn;

/// Every case starts and ends with nothing armed (the registry is
/// process-global).
struct FaultTest : ::testing::Test {
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override {
    fault::disarm_all();
    ::unsetenv("RDCN_FAULTS");
  }
};

TEST_F(FaultTest, InertByDefault) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fire("anything.at.all"));
  EXPECT_EQ(fault::eval_count("anything.at.all"), 0u);
  EXPECT_TRUE(fault::armed_points().empty());
}

TEST_F(FaultTest, UnarmedPointNeverFiresEvenWhenOthersAre) {
  fault::arm("a");
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::fire("b"));
  EXPECT_TRUE(fault::fire("a"));
}

TEST_F(FaultTest, DefaultTriggerAlwaysFires) {
  fault::arm("p");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fault::fire("p"));
  EXPECT_EQ(fault::fire_count("p"), 5u);
  EXPECT_EQ(fault::eval_count("p"), 5u);
}

TEST_F(FaultTest, AfterSkipsLeadingEvaluations) {
  fault::arm("p", {.after = 3});
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_TRUE(fault::fire("p"));
  EXPECT_EQ(fault::fire_count("p"), 1u);
  EXPECT_EQ(fault::eval_count("p"), 4u);
}

TEST_F(FaultTest, TimesBoundsTotalFirings) {
  fault::arm("p", {.times = 2});
  EXPECT_TRUE(fault::fire("p"));
  EXPECT_TRUE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_EQ(fault::fire_count("p"), 2u);
}

TEST_F(FaultTest, AfterAndTimesCompose) {
  fault::arm("p", {.after = 2, .times = 1});
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  EXPECT_TRUE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
}

TEST_F(FaultTest, ProbabilityIsDeterministicPerSeed) {
  const auto sample = [](std::uint64_t seed) {
    fault::disarm_all();
    fault::arm("p", {.probability = 0.5, .seed = seed});
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(fault::fire("p"));
    return fires;
  };
  const auto a = sample(7);
  const auto b = sample(7);
  const auto c = sample(8);
  EXPECT_EQ(a, b);  // same seed, same sequence
  EXPECT_NE(a, c);  // different stream
  const std::size_t fired =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 16u);  // crude sanity: p=0.5 over 64 draws
  EXPECT_LT(fired, 48u);
}

TEST_F(FaultTest, RearmingResetsCounters) {
  fault::arm("p", {.times = 1});
  EXPECT_TRUE(fault::fire("p"));
  EXPECT_FALSE(fault::fire("p"));
  fault::arm("p", {.times = 1});
  EXPECT_TRUE(fault::fire("p"));
}

TEST_F(FaultTest, DisarmRestoresInertFastPath) {
  fault::arm("a");
  fault::arm("b");
  fault::disarm("a");
  EXPECT_TRUE(fault::armed());  // b still armed
  fault::disarm("b");
  EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, ArmFromSpecParsesTriggers) {
  fault::arm_from_spec("x;y=after:2,times:1;z=p:0.0,seed:9");
  const std::vector<std::string> points = fault::armed_points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(fault::fire("x"));
  EXPECT_FALSE(fault::fire("y"));
  EXPECT_FALSE(fault::fire("y"));
  EXPECT_TRUE(fault::fire("y"));
  EXPECT_FALSE(fault::fire("y"));  // times:1 exhausted
  EXPECT_FALSE(fault::fire("z"));  // p=0 never fires
}

TEST_F(FaultTest, ArmFromSpecRejectsMalformedInput) {
  EXPECT_THROW(fault::arm_from_spec("=times:1"), SpecError);
  EXPECT_THROW(fault::arm_from_spec("p=times"), SpecError);
  EXPECT_THROW(fault::arm_from_spec("p=bogus:3"), SpecError);
  EXPECT_THROW(fault::arm_from_spec("p=times:abc"), SpecError);
  EXPECT_THROW(fault::arm_from_spec("p=p:1.5"), SpecError);
}

TEST_F(FaultTest, EmptySpecIsNoOp) {
  fault::arm_from_spec("");
  EXPECT_FALSE(fault::armed());
}

TEST_F(FaultTest, ArmFromEnvReadsRdcnFaults) {
  ::setenv("RDCN_FAULTS", "env.point=times:1", 1);
  fault::arm_from_env();
  EXPECT_TRUE(fault::fire("env.point"));
  EXPECT_FALSE(fault::fire("env.point"));
}

TEST_F(FaultTest, ArmFromEnvUnsetIsNoOp) {
  ::unsetenv("RDCN_FAULTS");
  fault::arm_from_env();
  EXPECT_FALSE(fault::armed());
}

}  // namespace
