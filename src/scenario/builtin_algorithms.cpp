// Built-in algorithm entries: the complete portfolio of the paper's
// evaluation (§3.1) plus the baselines grown around it.  Construction here
// must stay behaviour-identical to direct constructor calls with default
// options — tests/golden_ledger_test.cpp pins this with 50 golden cost
// ledgers.
#include "core/bma.hpp"
#include "core/greedy_online.hpp"
#include "core/oblivious.hpp"
#include "core/offline_dynamic.hpp"
#include "core/r_bma.hpp"
#include "core/rotor.hpp"
#include "core/so_bma.hpp"
#include "paging/factory.hpp"
#include "scenario/builtins.hpp"
#include "scenario/registry.hpp"

namespace rdcn::scenario {

namespace {

/// "marking|lru|...": engine choices for docs, straight from the paging
/// layer so a new engine shows up here without edits.
std::string engine_choices() {
  std::string out;
  for (const std::string& name : paging::engine_names())
    out += (out.empty() ? "" : "|") + name;
  return out;
}

paging::EngineKind parse_engine_param(const ParamMap& params) {
  const std::string name = params.get<std::string>("engine", "marking");
  paging::EngineKind kind = paging::EngineKind::kMarking;
  // A CLI typo surfaces as a catchable SpecError listing the valid choices.
  if (!paging::try_parse_engine(name, &kind))
    throw SpecError("parameter 'engine': unknown paging engine '" + name +
                    "'; known: " + engine_choices());
  return kind;
}

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& registry) {
  {
    AlgorithmEntry e;
    e.summary = "the paper's randomized algorithm (per-rack paging engines)";
    e.params = {{"engine", "per-rack paging engine: " + engine_choices(),
                 "marking"},
                {"eager", "eager (non-lazy) eviction from the matching",
                 "false"}};
    e.randomized = true;
    // The cost model's unit: the default 1 + 0·b (42–58 ns/request).
    e.build = [](const core::Instance& instance, const ParamMap& params,
                 const trace::Trace*, std::uint64_t seed) {
      core::RBmaOptions options;
      options.engine = parse_engine_param(params);
      options.lazy_eviction = !params.get<bool>("eager", false);
      options.seed = seed;
      return std::make_unique<core::RBma>(instance, options);
    };
    registry.add("r_bma", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary = "deterministic counter-based online baseline (BMA, §3.1)";
    // 80–87 ns/request at b=4, 135–149 at b=64: its eviction scan is Θ(b).
    e.cost_per_request = 1.49;
    e.cost_per_b = 0.029;
    e.build = [](const core::Instance& instance, const ParamMap&,
                 const trace::Trace*, std::uint64_t) {
      return std::make_unique<core::Bma>(instance);
    };
    registry.add("bma", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary = "greedy online matching: installs hot pairs, never evicts";
    // 12–13 ns/request at b=4, 14–16 at b=64.
    e.cost_per_request = 0.23;
    e.cost_per_b = 0.0019;
    e.build = [](const core::Instance& instance, const ParamMap&,
                 const trace::Trace*, std::uint64_t) {
      return std::make_unique<core::GreedyOnline>(instance);
    };
    registry.add("greedy", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary = "fixed network only (no reconfigurable links)";
    e.b_independent = true;
    e.cost_per_request = 0.03;  // one distance lookup: 1.4 ns/request
    e.build = [](const core::Instance& instance, const ParamMap&,
                 const trace::Trace*, std::uint64_t) {
      return std::make_unique<core::Oblivious>(instance);
    };
    registry.add("oblivious", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary = "demand-oblivious rotor baseline (RotorNet-style schedule)";
    e.params = {{"slot", "requests served per rotor slot", "100"},
                {"staggered", "phase-offset the b rotor switches", "true"}};
    // Every slot rewires all b rotor matchings: 318 ns/request at b=4,
    // 2934 at b=64.
    e.cost_per_request = 1.9;
    e.cost_per_b = 1.05;
    e.build = [](const core::Instance& instance, const ParamMap& params,
                 const trace::Trace*, std::uint64_t) {
      core::RotorOptions options;
      options.slot_length = params.get<std::size_t>("slot", 100);
      options.staggered = params.get<bool>("staggered", true);
      return std::make_unique<core::Rotor>(instance, options);
    };
    registry.add("rotor", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary =
        "static offline comparator: one max-weight b-matching for the "
        "whole trace (§3)";
    e.params = {{"local_search", "refine the greedy matching with swaps",
                 "true"},
                {"passes", "local-search passes", "8"}};
    e.needs_full_trace = true;
    // The static matching takes 11–13 ms to build at 10^6 requests, then
    // serving is a frozen-matching lookup (3.5–7.6 ns/request).
    e.cost_per_request = 0.36;
    e.cost_per_b = 0.0005;
    e.build = [](const core::Instance& instance, const ParamMap& params,
                 const trace::Trace* full_trace, std::uint64_t) {
      core::SoBmaOptions options;
      options.local_search = params.get<bool>("local_search", true);
      options.local_search_passes = params.get<int>("passes", 8);
      return std::make_unique<core::SoBma>(instance, *full_trace, options);
    };
    registry.add("so_bma", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary =
        "epoch-based dynamic offline comparator (per-window heavy "
        "b-matchings)";
    e.params = {{"window", "requests per epoch", "10000"},
                {"retention",
                 "weight bonus (fraction of alpha) for edges kept across "
                 "windows",
                 "1.0"},
                {"local_search", "refine each window's matching", "true"}};
    e.needs_full_trace = true;
    // Per-window heavy matchings: 72–105 ms to build at 10^6 requests,
    // then 18–34 ns/request to serve.
    e.cost_per_request = 1.66;
    e.cost_per_b = 0.017;
    e.build = [](const core::Instance& instance, const ParamMap& params,
                 const trace::Trace* full_trace, std::uint64_t) {
      core::OfflineDynamicOptions options;
      options.window = params.get<std::size_t>("window", 10'000);
      options.retention_bonus = params.get<double>("retention", 1.0);
      options.local_search = params.get<bool>("local_search", true);
      return std::make_unique<core::OfflineDynamic>(instance, *full_trace,
                                                    options);
    };
    registry.add("offline_dynamic", std::move(e));
  }
}

}  // namespace rdcn::scenario
