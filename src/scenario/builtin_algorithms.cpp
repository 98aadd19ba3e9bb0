// Built-in algorithm entries: the complete portfolio of the paper's
// evaluation (§3.1) plus the baselines grown around it.  Construction here
// must stay behaviour-identical to direct constructor calls with default
// options — tests/golden_ledger_test.cpp pins this with 50 golden cost
// ledgers.
#include <algorithm>

#include "core/bma.hpp"
#include "core/greedy_online.hpp"
#include "core/oblivious.hpp"
#include "core/offline_dynamic.hpp"
#include "core/r_bma.hpp"
#include "core/rotor.hpp"
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
    // The cost model's unit: the default 1 + 0·b (17–19 ns/request).
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
    // 39–44 ns/request at b=4, 67–75 at b=64: its eviction scan is Θ(b).
    e.cost_per_request = 1.46;
    e.cost_per_b = 0.030;
    e.build = [](const core::Instance& instance, const ParamMap&,
                 const trace::Trace*, std::uint64_t) {
      return std::make_unique<core::Bma>(instance);
    };
    registry.add("bma", std::move(e));
  }
  {
    AlgorithmEntry e;
    e.summary = "greedy online matching: installs hot pairs, never evicts";
    // 8–10 ns/request at b=4, 8–9 at b=64.
    e.cost_per_request = 0.355;
    e.cost_per_b = 0.001;
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
    e.cost_per_request = 0.075;  // one distance lookup: 1.7–2.4 ns/request
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
    // On 100 racks: 2.9–3.2× r_bma at b=4 and 3.4–3.8× at b=64.  A slot
    // change rewires every playing round while the stagger stride
    // (n-1)/b exceeds 1, but only two rounds once it is 1, so the cost
    // is not linear in b and b=16 (8.3–10.9×) reads about 3× low.
    e.cost_per_request = 3.08;
    e.cost_per_b = 0.0098;
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
        "static offline comparator: one greedy max-weight b-matching for "
        "the whole trace (§3)";
    e.needs_full_trace = true;
    // One greedy matching, then one bit test per request: 6.9–7.1 ms at
    // 10^6 requests at b=4 and 7.6–7.7 ms at b=64, 0.27–0.29× r_bma and
    // 0.34–0.36×, below greedy at both (0.32–0.34× at b=4).
    e.cost_per_request = 0.275;
    e.cost_per_b = 0.00117;
    // One offline_dynamic window spanning the whole trace.
    e.build = [](const core::Instance& instance, const ParamMap&,
                 const trace::Trace* full_trace, std::uint64_t) {
      core::OfflineDynamicOptions options;
      options.window = std::max<std::size_t>(1, full_trace->size());
      return std::make_unique<core::OfflineDynamic>(instance, *full_trace,
                                                    options);
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
                 "1.0"}};
    e.needs_full_trace = true;
    // Per-window greedy matchings, built and served: 32–35 ns/request at
    // b=4 and 57–63 at b=64, 1.34–1.41× r_bma and 2.68–2.77×.
    e.cost_per_request = 1.29;
    e.cost_per_b = 0.023;
    e.build = [](const core::Instance& instance, const ParamMap& params,
                 const trace::Trace* full_trace, std::uint64_t) {
      core::OfflineDynamicOptions options;
      options.window = params.get<std::size_t>("window", 10'000);
      options.retention_bonus = params.get<double>("retention", 1.0);
      return std::make_unique<core::OfflineDynamic>(instance, *full_trace,
                                                    options);
    };
    registry.add("offline_dynamic", std::move(e));
  }
}

}  // namespace rdcn::scenario
