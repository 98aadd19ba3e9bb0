// Tests for the command-line flag grammar (ParamMap::from_args in
// common/param_map.hpp): every CLI reads its flags through it and then
// through ParamMap's strict typed getters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/param_map.hpp"

namespace {

using rdcn::ParamMap;
using rdcn::SpecError;

ParamMap parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  for (const char* a : args) argv.push_back(a);
  return ParamMap::from_args(static_cast<int>(argv.size()), argv.data());
}

/// The SpecError text parse() raises for `args` ("" when it parses).
std::string parse_error(std::initializer_list<const char*> args) {
  try {
    parse(args);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, EqualsForm) {
  const ParamMap f = parse({"--racks=100", "--alpha=60"});
  EXPECT_EQ(f.get<std::size_t>("racks"), 100u);
  EXPECT_EQ(f.get<std::uint64_t>("alpha"), 60u);
}

TEST(Flags, SpaceForm) {
  const ParamMap f = parse({"--racks", "50", "--name", "hello"});
  EXPECT_EQ(f.get<std::size_t>("racks"), 50u);
  EXPECT_EQ(f.get<std::string>("name"), "hello");
}

TEST(Flags, BooleanFlagWithoutValue) {
  const ParamMap f = parse({"--eager", "--racks=10"});
  EXPECT_TRUE(f.get("eager", false));
  EXPECT_FALSE(f.get("missing", false));
  EXPECT_TRUE(f.get("missing", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const ParamMap f = parse({});
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.get<std::string>("x", "fallback"), "fallback");
  EXPECT_EQ(f.get("n", -7), -7);
  EXPECT_DOUBLE_EQ(f.get("d", 2.5), 2.5);
}

TEST(Flags, LastOccurrenceWins) {
  const ParamMap f = parse({"--b=3", "--b=9"});
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.get<std::size_t>("b"), 9u);
}

TEST(Flags, ValuesKeepCommasAndEquals) {
  // A list or a path is the flag's raw value; the reader splits it.
  const ParamMap f = parse({"--b=6,12,18", "--trace=a=b,c.csv"});
  EXPECT_EQ(f.get<std::string>("b"), "6,12,18");
  EXPECT_EQ(f.get<std::string>("trace"), "a=b,c.csv");
}

TEST(Flags, UnknownFlagDetection) {
  const ParamMap f = parse({"--good=1", "--bad=2"});
  EXPECT_EQ(f.get<int>("good"), 1);
  const auto unknown = f.unconsumed_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bad");
  EXPECT_THROW(f.require_all_consumed("prog"), SpecError);
}

TEST(Flags, DoubleAndNegativeValues) {
  const ParamMap f = parse({"--skew=1.25", "--delta=-3"});
  EXPECT_DOUBLE_EQ(f.get<double>("skew"), 1.25);
  EXPECT_EQ(f.get<int>("delta"), -3);
}

// Space-form parsing must never swallow a '-'-leading token: after a
// boolean flag it would be misbound as that flag's value ("--eager -5"
// used to make eager = "-5").  Negative values therefore require the '='
// form, and the stray token itself is an error.
TEST(Flags, SpaceFormDoesNotSwallowNegativeNumber) {
  EXPECT_NE(parse_error({"--eager", "-5"}).find("'-5'"), std::string::npos);
}

TEST(Flags, SpaceFormDoesNotSwallowSingleDashToken) {
  EXPECT_NE(parse_error({"--out", "-", "--verbose"}).find("'-'"),
            std::string::npos);
  // "--out" before a flag is a boolean, not a flag eating the next one.
  const ParamMap f = parse({"--out", "--verbose"});
  EXPECT_EQ(f.get<std::string>("out"), "true");
  EXPECT_TRUE(f.get("verbose", false));
}

TEST(Flags, NegativeValueViaEqualsFormStillBinds) {
  const ParamMap f = parse({"--alpha=-5", "--beta", "7"});
  EXPECT_EQ(f.get<int>("alpha"), -5);
  EXPECT_EQ(f.get<std::uint64_t>("beta"), 7u);
}

TEST(Flags, StrayArgumentsAreErrors) {
  // Each once parsed as a positional no binary read, so a typo silently
  // ran the default experiment.
  for (const char* stray : {"50000", "input.csv", "-x", "--", "--=3"}) {
    const std::string what = parse_error({"--racks=10", stray});
    EXPECT_NE(what.find(std::string("'") + stray + "'"), std::string::npos)
        << stray << ": " << what;
  }
  // A space-form value is consumed, so it is not stray.
  EXPECT_EQ(parse_error({"--requests", "50000"}), "");
}

TEST(Flags, MalformedValuesNameTheFlag) {
  const ParamMap f =
      parse({"--racks=12abc", "--requests=-1", "--threads=1.5",
             "--retry-ms=4294967296", "--quota-rps=nan", "--profile=maybe"});
  const auto error_of = [&](auto read) {
    try {
      read();
    } catch (const SpecError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(error_of([&] { f.get<std::size_t>("racks"); }).find("'racks'"),
            std::string::npos);
  EXPECT_NE(
      error_of([&] { f.get<std::size_t>("requests"); }).find("'requests'"),
      std::string::npos);
  EXPECT_NE(error_of([&] { f.get<std::size_t>("threads"); }).find("'threads'"),
            std::string::npos);
  EXPECT_NE(
      error_of([&] { f.get<std::uint32_t>("retry-ms"); }).find("'retry-ms'"),
      std::string::npos);
  EXPECT_NE(error_of([&] { f.get<double>("quota-rps"); }).find("'quota-rps'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { f.get("profile", false); }).find("'profile'"),
            std::string::npos);
}

}  // namespace
