// The spec parsers' contract, pinned independently of how they are
// written: the exact SpecError text of every error branch of
// ScenarioSpec::parse, Spec::parse, ParamMap::parse, registry validation
// and parse_command, then every single-byte mutant of a corpus of specs,
// each of which must raise SpecError or parse into a spec whose canonical
// and faithful forms round-trip byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/param_map.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace rdcn;
using scenario::ScenarioSpec;

/// The SpecError text `parse` raises, or "(parsed)" when it raises none.
std::string error_of(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const SpecError& e) {
    return e.what();
  }
  return "(parsed)";
}

/// Parses like the daemon's admission: the spec, then every component
/// through its registry.
void admit(const std::string& text) {
  const ScenarioSpec spec = ScenarioSpec::parse(text).resolved();
  scenario::TopologyRegistry::instance().validate(spec.topology);
  scenario::WorkloadRegistry::instance().validate(spec.workload);
  for (const Spec& algorithm : spec.algorithms)
    scenario::AlgorithmRegistry::instance().validate(algorithm);
}

constexpr const char* kKnownFields =
    "; known: topology, workload, algorithms, b, racks, requests, a, alpha, "
    "trials, checkpoints, seed, threads";

TEST(SpecContract, EveryErrorBranchKeepsItsText) {
  const auto scenario = [](const std::string& t) { ScenarioSpec::parse(t); };
  const struct {
    const char* input;
    std::function<void(const std::string&)> parse;
    std::string error;
  } rows[] = {
      {"racks", scenario,
       "scenario field 'racks' is not of the form key=value"},
      {"b=2;racks=8;b=4", scenario, "duplicate scenario field 'b'"},
      {"bogus=1;racks=8;bogus=2", scenario,
       "duplicate scenario field 'bogus'"},
      {"racks=8;bogus=1", scenario,
       std::string("unknown scenario field 'bogus'") + kKnownFields},
      {"racks=8;=5", scenario,
       std::string("unknown scenario field ''") + kKnownFields},
      // A bad known value is reported before an unknown field, whichever
      // comes first in the text.
      {"racks=ten;bogus=1", scenario,
       "parameter 'racks': cannot parse 'ten' as an unsigned integer"},
      {"bogus=1;racks=ten", scenario,
       "parameter 'racks': cannot parse 'ten' as an unsigned integer"},
      {"b=2,,4", scenario,
       "parameter 'b': cannot parse '' as an unsigned integer"},
      {"requests=99999999999999999999", scenario,
       "parameter 'requests': cannot parse '99999999999999999999' as an "
       "unsigned integer"},
      {"b=4,99999999999999999999", scenario,
       "parameter 'b': cannot parse '99999999999999999999' as an unsigned "
       "integer"},
      {"topology=", scenario, "spec '' has no name"},
      {":a=1", [](const std::string& t) { Spec::parse(t); },
       "spec ':a=1' has no name"},
      {"a=1,,b=2", [](const std::string& t) { ParamMap::parse(t); },
       "empty parameter in spec 'a=1,,b=2'"},
      {"=5", [](const std::string& t) { ParamMap::parse(t); },
       "parameter with empty key in spec '=5'"},
      {"b=2,b=4", [](const std::string& t) { ParamMap::parse(t); },
       "duplicate parameter 'b' in spec 'b=2,b=4'"},
      {"algorithms=r_bam", admit,
       "unknown algorithm 'r_bam' (did you mean 'r_bma'?); known: bma, "
       "greedy, oblivious, offline_dynamic, r_bma, rotor, so_bma"},
      {"algorithms=r_bma:engnie=lru", admit,
       "algorithm 'r_bma': unknown parameter 'engnie' (did you mean "
       "'engine'?); known: engine, eager"},
      {"topology=fat_tree:kk=4", admit,
       "topology 'fat_tree': unknown parameter 'kk' (did you mean 'k'?); "
       "known: k"},
  };
  for (const auto& row : rows)
    EXPECT_EQ(error_of([&] { row.parse(row.input); }), row.error)
        << row.input;

  const struct {
    const char* line;
    const char* error;
  } commands[] = {
      {"RUN", "RUN needs a scenario spec ('RUN <spec>')"},
      {"RUN w=z bogus=1",
       "RUN: unknown parameter 'bogus'; known RUN options: "
       "deadline_ms=<positive integer>"},
      {"FROB",
       "unknown command 'FROB'; known: PING, RUN, CANCEL, ATTACH, RESET, "
       "STATS, METRICS, SHUTDOWN"},
  };
  for (const auto& row : commands) {
    const serve::Command cmd = serve::parse_command(row.line);
    EXPECT_EQ(cmd.kind, serve::Command::Kind::kInvalid) << row.line;
    EXPECT_EQ(cmd.error, row.error) << row.line;
  }
}

/// The mutation corpus: serve_cached's 8 forms of one spec (scenario
/// fields rotated, workload params permuted), a spec that sets every
/// field, and an algorithm list whose commas both separate specs and
/// params.
std::vector<std::string> corpus() {
  std::vector<std::string> out;
  std::vector<std::string> params = {"rack_skew=1.2", "elephants=10",
                                     "boost=30"};
  for (std::size_t form = 0; form < 8; ++form) {
    std::next_permutation(params.begin(), params.end());
    std::vector<std::string> fields = {
        "topology=fat_tree",
        "workload=microsoft:" + params[0] + "," + params[1] + "," + params[2],
        "algorithms=bma",
        "b=2",
        "racks=100",
        "requests=20000",
        "seed=42"};
    std::rotate(fields.begin(),
                fields.begin() + static_cast<long>(form % fields.size()),
                fields.end());
    std::string text;
    for (const std::string& f : fields) text += (text.empty() ? "" : ";") + f;
    out.push_back(text);
  }
  out.push_back(
      "topology=torus:rows=5,cols=10;workload=flow_pool:pairs=2000,skew=1.2;"
      "algorithms=r_bma:engine=lru,eager,bma;b=6,12;racks=50;requests=30000;"
      "a=2;alpha=60;trials=3;checkpoints=4;seed=7;threads=2");
  out.push_back("algorithms=r_bma:engine=lru,eager,bma");
  return out;
}

/// One input: a SpecError, or a spec whose printed forms parse back to
/// themselves.  The RUN line carrying it never throws.
void check_mutant(const std::string& text) {
  EXPECT_NO_THROW(serve::parse_command("RUN " + text)) << text;
  ScenarioSpec spec;
  try {
    spec = ScenarioSpec::parse(text);
  } catch (const SpecError&) {
    return;
  }
  const std::string canonical = spec.canonical_string();
  const std::string faithful = spec.to_string();
  EXPECT_EQ(ScenarioSpec::parse(canonical).canonical_string(), canonical)
      << text;
  EXPECT_EQ(ScenarioSpec::parse(faithful).to_string(), faithful) << text;
}

TEST(SpecContract, SingleByteMutantsRaiseOrRoundTrip) {
  std::size_t mutants = 0;
  for (const std::string& text : corpus()) {
    check_mutant(text);
    for (std::size_t i = 0; i < text.size(); ++i) {
      check_mutant(text.substr(0, i) + text.substr(i + 1));
      for (const char c : {';', ',', '=', ':', ' '}) {
        std::string mutant = text;
        mutant[i] = c;
        check_mutant(mutant);
        ++mutants;
      }
    }
  }
  EXPECT_GT(mutants, 5000u);
}

}  // namespace
