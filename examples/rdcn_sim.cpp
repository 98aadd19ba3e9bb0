// rdcn_sim — the command-line simulation driver.
//
// A downstream user's one-stop tool: pick a topology, a workload, a set of
// algorithms and cache sizes, and get the paper-style tables (and
// optionally CSV) without writing C++.  Everything after the driver flags
// is resolved through the scenario registries, so components registered
// anywhere in the library (or via RDCN_REGISTER_*) are immediately
// available here, with --help text generated from their registered docs.
//
// Examples:
//   rdcn_sim --workload=facebook_db --racks=100 --requests=100000
//            --algorithms=r_bma,bma,oblivious --b=6,12,18 --alpha=60
//   rdcn_sim --workload=flow_pool:pairs=2000,skew=1.2,drift=5000
//            --topology=torus:rows=5,cols=10 --algorithms=r_bma:engine=lru,bma
//   rdcn_sim --workload=zipf:skew=1.3 --topology=leaf_spine:spines=12
//   rdcn_sim --trace=trace.csv --algorithms=r_bma --b=8 --csv=out.csv
#include <fstream>
#include <iostream>
#include <optional>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

// The flag section of --help.  The scenario fields are read (and unknown
// flags rejected) by ScenarioSpec::parse; component names and their
// parameters are NOT listed here: that half of the help text is generated
// from the registries (scenario::catalog_text), so it can never drift.
struct FlagDoc {
  const char* name;
  const char* arg;  ///< "" for boolean flags
  const char* help;
};

constexpr FlagDoc kFlagDocs[] = {
    {"topology", "SPEC", "topology spec: name[:k=v,...] (default fat_tree)"},
    {"racks", "N", "number of top-of-rack switches (default 100)"},
    {"workload", "SPEC", "workload spec: name[:k=v,...] (default facebook_db)"},
    {"trace", "FILE", "shorthand for --workload=csv:path=FILE"},
    {"requests", "N", "trace length (default 100000)"},
    {"algorithms", "LIST",
     "comma-separated algorithm specs (default r_bma,bma,oblivious)"},
    {"b", "LIST", "cache sizes to sweep, e.g. 6,12,18 (default 12)"},
    {"a", "N", "offline degree bound (default = b)"},
    {"alpha", "N", "reconfiguration cost (default 60)"},
    {"trials", "N", "repetitions for randomized algorithms (default 5)"},
    {"checkpoints", "N", "table rows (default 8)"},
    {"seed", "N", "master seed (default 42)"},
    {"threads", "N",
     "worker threads for trial execution (0 = all cores; results are "
     "thread-count independent)"},
    {"metric", "NAME", "which table to print (default routing_cost)"},
    {"csv", "FILE", "also write the table as CSV"},
    {"profile", "",
     "trace simulation phases (RAII spans over the monotonic clock) and "
     "print a per-phase time report after the run"},
    {"help", "", "this text"},
};

std::string usage_text() {
  std::string out = "rdcn_sim — online b-matching simulator\n\nflags:\n";
  for (const FlagDoc& f : kFlagDocs) {
    std::string head = std::string("  --") + f.name;
    if (f.arg[0] != '\0') head += std::string("=") + f.arg;
    out += head;
    out.append(head.size() < 26 ? 26 - head.size() : 1, ' ');
    out += f.help;
    out += "\n";
  }
  out += "\nmetrics (--metric): ";
  const std::vector<std::string>& metrics = sim::metric_names();
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i == 0 ? "" : " | ") + metrics[i];
  out += "\n\n";
  out += scenario::catalog_text();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ParamMap flags = ParamMap::from_args(argc, argv);
    if (flags.get("help", false)) {
      std::cout << usage_text();
      return 0;
    }
    // rdcn_sim's own flags first; every other flag must be a scenario
    // field, which ScenarioSpec::parse reads and checks.
    const sim::Metric metric =
        sim::parse_metric(flags.get<std::string>("metric", "routing_cost"));
    const std::string csv = flags.get<std::string>("csv", "");
    const bool profile = flags.get("profile", false);
    std::optional<std::string> trace;
    if (flags.contains("trace")) trace = flags.get<std::string>("trace");
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(flags);
    if (trace) {
      // Built directly, not parsed: any path survives, ',' and '=' too.
      spec.workload = Spec{"csv", {}};
      spec.workload.params.set("path", *trace);
    }

    if (profile) {
      obs::reset_traces();  // a clean tree: this run only
      obs::set_tracing(true);
    }

    const scenario::ScenarioResult result = [&] {
      // The root span brackets the whole run so child phases (workload
      // generation, trial execution, checkpoint drains) report as
      // fractions of it.
      obs::ObsSpan root("rdcn_sim.run");
      return scenario::run_scenario(spec);
    }();

    std::cout << "scenario: " << result.spec.to_string() << "\n";
    if (!result.workload.empty()) {
      const trace::TraceStats stats = trace::compute_stats(result.workload);
      std::cout << "workload=" << result.workload.name()
                << " racks=" << result.workload.num_racks()
                << " requests=" << result.workload.size()
                << " gini=" << stats.gini
                << " locality64=" << stats.locality_window64 << "\n\n";
    } else {
      // A single online task replays the workload as a stream: no trace
      // exists to compute stats over.
      std::cout << "workload=" << result.workload.name()
                << " racks=" << result.workload.num_racks()
                << " requests=" << result.spec.requests
                << " (streamed: constant-memory replay, stats skipped)\n\n";
    }
    sim::print_table(std::cout, result.runs, metric, "rdcn_sim");
    sim::print_summary(std::cout, result.runs, result.runs.back());

    if (!csv.empty()) {
      std::ofstream out(csv);
      sim::write_csv(out, result.runs, metric);
      std::cout << "wrote " << csv << "\n";
    }

    if (profile) {
      obs::set_tracing(false);
      std::cout << "\n";
      obs::write_profile_report(std::cout);
    }
  } catch (const std::exception& e) {
    // SpecError from the flags, the spec or the registries: report, don't
    // abort.
    std::cerr << "error: " << e.what() << "\n";
    std::cerr << "run with --help for the full component catalog\n";
    return 2;
  }
  return 0;
}
