// Tests for the typed parameter map and compact spec strings
// (common/param_map.hpp) — the data layer of the scenario API — and for
// the command-line flag grammar (ParamMap::from_args): every CLI reads its
// flags through it and then through ParamMap's strict typed getters.
#include <gtest/gtest.h>

#include <clocale>
#include <string>
#include <vector>

#include "common/param_map.hpp"

namespace {

using rdcn::ParamMap;
using rdcn::Spec;
using rdcn::SpecError;

TEST(ParamMap, ParsesKeyValuesAndBareKeys) {
  const ParamMap m = ParamMap::parse("b=16,engine=lru,eager");
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.get<std::size_t>("b"), 16u);
  EXPECT_EQ(m.get<std::string>("engine"), "lru");
  EXPECT_TRUE(m.get<bool>("eager"));  // bare key ≡ key=true
}

TEST(ParamMap, EmptyTextParsesToEmptyMap) {
  EXPECT_TRUE(ParamMap::parse("").empty());
  EXPECT_TRUE(ParamMap::parse("  ").empty());
}

TEST(ParamMap, RoundTripsThroughToString) {
  const char* specs[] = {"b=16,engine=lru,eager", "eager",
                         "skew=1.2,drift=5000", ""};
  for (const char* text : specs) {
    const ParamMap m = ParamMap::parse(text);
    EXPECT_EQ(m.to_string(), text);
    EXPECT_TRUE(ParamMap::parse(m.to_string()) == m);
  }
}

TEST(ParamMap, ToStringPrintsExplicitTrueAsBareKey) {
  // "eager=true" and "eager" are the same map; the canonical print is
  // the compact bare-key form.
  const ParamMap m = ParamMap::parse("eager=true,b=2");
  EXPECT_EQ(m.to_string(), "eager,b=2");
  EXPECT_TRUE(ParamMap::parse(m.to_string()) == m);
}

TEST(ParamMap, PreservesInsertionOrder) {
  const ParamMap m = ParamMap::parse("z=1,a=2,m=3");
  std::vector<std::string> keys;
  m.for_each_key([&](const std::string& key) { keys.push_back(key); });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "z");
  EXPECT_EQ(keys[1], "a");
  EXPECT_EQ(keys[2], "m");
  EXPECT_EQ(m.to_string(), "z=1,a=2,m=3");
}

TEST(ParamMap, DuplicateKeyIsAnError) {
  EXPECT_THROW(ParamMap::parse("b=2,b=4"), SpecError);
}

TEST(ParamMap, MalformedItemsAreErrors) {
  EXPECT_THROW(ParamMap::parse("a=1,,b=2"), SpecError);   // empty item
  EXPECT_THROW(ParamMap::parse("=5"), SpecError);          // empty key
}

TEST(ParamMap, RequiredGetterThrowsWhenMissing) {
  const ParamMap m = ParamMap::parse("a=1");
  EXPECT_THROW(m.get<std::size_t>("b"), SpecError);
  EXPECT_THROW(m.get<std::string>("b"), SpecError);
}

TEST(ParamMap, DefaultedGetterFallsBack) {
  const ParamMap m = ParamMap::parse("a=1");
  EXPECT_EQ(m.get<std::size_t>("b", 7), 7u);
  EXPECT_EQ(m.get<std::string>("name", "x"), "x");
  EXPECT_DOUBLE_EQ(m.get<double>("skew", 1.5), 1.5);
  EXPECT_TRUE(m.get<bool>("flag", true));
}

TEST(ParamMap, TypedConversionEdgeCases) {
  const ParamMap m = ParamMap::parse(
      "u=18446744073709551615,neg=-3,d=1e3,frac=0.25,t=yes,f=off");
  EXPECT_EQ(m.get<std::uint64_t>("u"), 18446744073709551615ull);
  EXPECT_EQ(m.get<std::int64_t>("neg"), -3);
  EXPECT_DOUBLE_EQ(m.get<double>("d"), 1000.0);
  EXPECT_DOUBLE_EQ(m.get<double>("frac"), 0.25);
  EXPECT_TRUE(m.get<bool>("t"));
  EXPECT_FALSE(m.get<bool>("f"));
}

TEST(ParamMap, ConversionFailuresThrow) {
  const ParamMap m =
      ParamMap::parse("bad=12x,neg=-3,big=300,word=maybe,empty=");
  EXPECT_THROW(m.get<std::size_t>("bad"), SpecError);   // trailing garbage
  EXPECT_THROW(m.get<std::uint64_t>("neg"), SpecError); // negative→unsigned
  EXPECT_THROW(m.get<std::uint8_t>("big"), SpecError);  // narrowing overflow
  EXPECT_THROW(m.get<bool>("word"), SpecError);
  EXPECT_THROW(m.get<double>("empty"), SpecError);
}

TEST(ParamMap, UnconsumedKeyTracking) {
  const ParamMap m = ParamMap::parse("a=1,b=2,typo=3");
  (void)m.get<std::size_t>("a");
  (void)m.get<std::size_t>("b", 0);
  const auto unconsumed = m.unconsumed_keys();
  ASSERT_EQ(unconsumed.size(), 1u);
  EXPECT_EQ(unconsumed[0], "typo");
  EXPECT_THROW(m.require_all_consumed("algorithm 'x'"), SpecError);
  (void)m.get<std::size_t>("typo");
  m.require_all_consumed("algorithm 'x'");  // all read now: no throw
}

TEST(ParamMap, ResetConsumptionForgetsReads) {
  const ParamMap m = ParamMap::parse("a=1");
  (void)m.get<std::size_t>("a");
  EXPECT_TRUE(m.unconsumed_keys().empty());
  m.reset_consumption();
  EXPECT_EQ(m.unconsumed_keys().size(), 1u);
}

TEST(ParamMap, SetInsertsAndOverwrites) {
  ParamMap m;
  m.set("a", "1");
  m.set("b", "2");
  m.set("a", "9");
  EXPECT_EQ(m.get<std::size_t>("a"), 9u);
  EXPECT_EQ(m.to_string(), "a=9,b=2");
}

TEST(Spec, ParsesNameOnlyAndNameWithParams) {
  const Spec plain = Spec::parse("bma");
  EXPECT_EQ(plain.name, "bma");
  EXPECT_TRUE(plain.params.empty());

  const Spec full = Spec::parse("r_bma:b=16,engine=lru,eager");
  EXPECT_EQ(full.name, "r_bma");
  EXPECT_EQ(full.params.get<std::size_t>("b"), 16u);
  EXPECT_EQ(full.params.get<std::string>("engine"), "lru");
  EXPECT_TRUE(full.params.get<bool>("eager"));
}

TEST(Spec, RoundTripsThroughToString) {
  for (const char* text :
       {"bma", "r_bma:b=16,engine=lru,eager",
        "flow_pool:pairs=2000,skew=1.2,drift=5000"}) {
    const Spec s = Spec::parse(text);
    EXPECT_EQ(s.to_string(), text);
    EXPECT_TRUE(Spec::parse(s.to_string()) == s);
  }
}

TEST(Spec, EmptyNameIsAnError) {
  EXPECT_THROW(Spec::parse(""), SpecError);
  EXPECT_THROW(Spec::parse(":a=1"), SpecError);
}

TEST(ParamMap, ParseDoubleRejectsNonFiniteAndExotic) {
  // Spec strings mean plain decimal/scientific numbers; hex floats, inf,
  // and nan would round-trip badly (and inf/nan poison every cost
  // average), so they are conversion errors, not values.
  const ParamMap m = ParamMap::parse(
      "hex=0x10,inf=inf,ninf=-inf,nan=nan,loneexp=1e,trail=1.5z,plus=+1");
  EXPECT_THROW(m.get<double>("hex"), SpecError);
  EXPECT_THROW(m.get<double>("inf"), SpecError);
  EXPECT_THROW(m.get<double>("ninf"), SpecError);
  EXPECT_THROW(m.get<double>("nan"), SpecError);
  EXPECT_THROW(m.get<double>("loneexp"), SpecError);
  EXPECT_THROW(m.get<double>("trail"), SpecError);
  EXPECT_THROW(m.get<double>("plus"), SpecError);
  // Scientific notation with an exponent sign stays legal.
  const ParamMap ok = ParamMap::parse("a=1e+3,b=2.5e-2,c=-0.5");
  EXPECT_DOUBLE_EQ(ok.get<double>("a"), 1000.0);
  EXPECT_DOUBLE_EQ(ok.get<double>("b"), 0.025);
  EXPECT_DOUBLE_EQ(ok.get<double>("c"), -0.5);
}

TEST(ParamMap, ParseDoubleIgnoresNumericLocale) {
  // Regression: the old strtod-based conversion honored LC_NUMERIC, so
  // under a comma-decimal locale "skew=1.2" silently parsed as 1.0 —
  // specs must mean the same experiment on every machine.
  const char* previous = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (previous == nullptr) GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  const ParamMap m = ParamMap::parse("skew=1.2");
  const double parsed = m.get<double>("skew");
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_DOUBLE_EQ(parsed, 1.2);
}

TEST(ParamMap, ContainsIsAPureProbe) {
  // Regression: contains() used to mark the entry consumed, so a key that
  // was only probed — never actually read — escaped the unknown-parameter
  // check and typos sailed through.
  const ParamMap m = ParamMap::parse("typo=3");
  EXPECT_TRUE(m.contains("typo"));
  const auto unconsumed = m.unconsumed_keys();
  ASSERT_EQ(unconsumed.size(), 1u);
  EXPECT_EQ(unconsumed[0], "typo");
  EXPECT_THROW(m.require_all_consumed("algorithm 'x'"), SpecError);
}

TEST(ParamMap, CanonicalStringSortsKeys) {
  EXPECT_EQ(ParamMap::parse("z=1,a=2,m").canonical_string(), "a=2,m,z=1");
  EXPECT_EQ(ParamMap::parse("").canonical_string(), "");
  // Canonical text is itself a valid spec, and canonicalizing is
  // idempotent.  (operator== stays order-sensitive — insertion order is
  // real data for to_string() — so compare canonical forms.)
  const ParamMap m = ParamMap::parse("skew=1.2,pairs=30");
  EXPECT_EQ(ParamMap::parse(m.canonical_string()).canonical_string(),
            m.canonical_string());
}

TEST(Spec, CanonicalStringIsOrderInsensitive) {
  const Spec a = Spec::parse("r_bma:engine=lru,b=16,eager");
  const Spec b = Spec::parse("r_bma:eager,b=16,engine=lru");
  EXPECT_EQ(a.canonical_string(), b.canonical_string());
  EXPECT_EQ(a.canonical_string(), "r_bma:b=16,eager,engine=lru");
  EXPECT_EQ(Spec::parse("bma").canonical_string(), "bma");
  // Different parameter *values* stay different specs.
  EXPECT_NE(Spec::parse("r_bma:b=16").canonical_string(),
            Spec::parse("r_bma:b=12").canonical_string());
}

/// `args` after a program name, through the command-line flag grammar.
ParamMap parse_args(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  for (const char* a : args) argv.push_back(a);
  return ParamMap::from_args(static_cast<int>(argv.size()), argv.data());
}

/// The SpecError text parse_args() raises for `args` ("" when it parses).
std::string parse_args_error(std::initializer_list<const char*> args) {
  try {
    parse_args(args);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(FromArgs, EqualsForm) {
  const ParamMap f = parse_args({"--racks=100", "--alpha=60"});
  EXPECT_EQ(f.get<std::size_t>("racks"), 100u);
  EXPECT_EQ(f.get<std::uint64_t>("alpha"), 60u);
}

TEST(FromArgs, SpaceForm) {
  const ParamMap f = parse_args({"--racks", "50", "--name", "hello"});
  EXPECT_EQ(f.get<std::size_t>("racks"), 50u);
  EXPECT_EQ(f.get<std::string>("name"), "hello");
}

TEST(FromArgs, BooleanFlagWithoutValue) {
  const ParamMap f = parse_args({"--eager", "--racks=10"});
  EXPECT_TRUE(f.get("eager", false));
  EXPECT_FALSE(f.get("missing", false));
  EXPECT_TRUE(f.get("missing", true));
}

TEST(FromArgs, DefaultsWhenAbsent) {
  const ParamMap f = parse_args({});
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.get<std::string>("x", "fallback"), "fallback");
  EXPECT_EQ(f.get("n", -7), -7);
  EXPECT_DOUBLE_EQ(f.get("d", 2.5), 2.5);
}

TEST(FromArgs, LastOccurrenceWins) {
  const ParamMap f = parse_args({"--b=3", "--b=9"});
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.get<std::size_t>("b"), 9u);
}

TEST(FromArgs, ValuesKeepCommasAndEquals) {
  // A list or a path is the flag's raw value; the reader splits it.
  const ParamMap f = parse_args({"--b=6,12,18", "--trace=a=b,c.csv"});
  EXPECT_EQ(f.get<std::string>("b"), "6,12,18");
  EXPECT_EQ(f.get<std::string>("trace"), "a=b,c.csv");
}

TEST(FromArgs, UnknownFlagDetection) {
  const ParamMap f = parse_args({"--good=1", "--bad=2"});
  EXPECT_EQ(f.get<int>("good"), 1);
  const auto unknown = f.unconsumed_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bad");
  EXPECT_THROW(f.require_all_consumed("prog"), SpecError);
}

TEST(FromArgs, DoubleAndNegativeValues) {
  const ParamMap f = parse_args({"--skew=1.25", "--delta=-3"});
  EXPECT_DOUBLE_EQ(f.get<double>("skew"), 1.25);
  EXPECT_EQ(f.get<int>("delta"), -3);
}

// Space-form parsing must never swallow a '-'-leading token: after a
// boolean flag it would be misbound as that flag's value ("--eager -5"
// used to make eager = "-5").  Negative values therefore require the '='
// form, and the stray token itself is an error.
TEST(FromArgs, SpaceFormDoesNotSwallowNegativeNumber) {
  EXPECT_NE(parse_args_error({"--eager", "-5"}).find("'-5'"), std::string::npos);
}

TEST(FromArgs, SpaceFormDoesNotSwallowSingleDashToken) {
  EXPECT_NE(parse_args_error({"--out", "-", "--verbose"}).find("'-'"),
            std::string::npos);
  // "--out" before a flag is a boolean, not a flag eating the next one.
  const ParamMap f = parse_args({"--out", "--verbose"});
  EXPECT_EQ(f.get<std::string>("out"), "true");
  EXPECT_TRUE(f.get("verbose", false));
}

TEST(FromArgs, NegativeValueViaEqualsFormStillBinds) {
  const ParamMap f = parse_args({"--alpha=-5", "--beta", "7"});
  EXPECT_EQ(f.get<int>("alpha"), -5);
  EXPECT_EQ(f.get<std::uint64_t>("beta"), 7u);
}

TEST(FromArgs, StrayArgumentsAreErrors) {
  // Each once parsed as a positional no binary read, so a typo silently
  // ran the default experiment.
  for (const char* stray : {"50000", "input.csv", "-x", "--", "--=3"}) {
    const std::string what = parse_args_error({"--racks=10", stray});
    EXPECT_NE(what.find(std::string("'") + stray + "'"), std::string::npos)
        << stray << ": " << what;
  }
  // A space-form value is consumed, so it is not stray.
  EXPECT_EQ(parse_args_error({"--requests", "50000"}), "");
}

TEST(FromArgs, MalformedValuesNameTheFlag) {
  const ParamMap f =
      parse_args({"--racks=12abc", "--requests=-1", "--threads=1.5",
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
