// Built-in workload entries wrapping the trace::stream_* generators, the
// Facebook/Microsoft cluster profiles, and CSV trace import.  Every builder
// returns a stream seeded from a snapshot of the scenario RNG, so a fixed
// seed reproduces the trace bit-for-bit whether it is replayed chunk by
// chunk or materialized first.
#include <fstream>

#include "scenario/builtins.hpp"
#include "scenario/registry.hpp"
#include "trace/facebook_like.hpp"
#include "trace/generators.hpp"
#include "trace/microsoft_like.hpp"
#include "trace/trace_io.hpp"

namespace rdcn::scenario {

namespace {

WorkloadEntry facebook(std::string summary, trace::FacebookCluster cluster) {
  WorkloadEntry e;
  e.summary = std::move(summary);
  e.build = [cluster](std::size_t racks, std::size_t requests,
                      const ParamMap&, const Xoshiro256& rng) {
    return trace::stream_facebook_like(cluster, racks, requests, rng);
  };
  return e;
}

trace::FlowPoolParams parse_flow_pool(const ParamMap& params) {
  trace::FlowPoolParams p;
  p.candidate_pairs = params.get<std::size_t>("pairs", 1000);
  p.zipf_skew = params.get<double>("skew", 1.0);
  p.mean_burst_length = params.get<double>("burst", 20.0);
  p.max_active_flows = params.get<std::size_t>("active", 50);
  p.new_flow_prob = params.get<double>("arrival", 0.05);
  p.drift_period = params.get<std::size_t>("drift", 0);
  p.drift_fraction = params.get<double>("drift_fraction", 0.1);
  p.hub_fraction = params.get<double>("hub_fraction", 0.0);
  p.hub_bias = params.get<double>("hub_bias", 0.8);
  p.noise_fraction = params.get<double>("noise", 0.0);
  return p;
}

trace::MicrosoftParams parse_microsoft(const ParamMap& params) {
  trace::MicrosoftParams p;
  p.rack_skew = params.get<double>("rack_skew", 1.2);
  p.num_elephants = params.get<std::size_t>("elephants", 25);
  p.elephant_boost = params.get<double>("boost", 30.0);
  return p;
}

}  // namespace

void register_builtin_workloads(WorkloadRegistry& registry) {
  {
    WorkloadEntry e;
    e.summary = "uniform i.i.d. pairs — no structure at all";
    e.build = [](std::size_t racks, std::size_t requests, const ParamMap&,
                 const Xoshiro256& rng) {
      return trace::stream_uniform(racks, requests, rng);
    };
    registry.add("uniform", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "Zipf-skewed i.i.d. pairs (pure spatial skew)";
    e.params = {{"skew", "Zipf exponent s", "1.0"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256& rng) {
      return trace::stream_zipf_pairs(racks, requests,
                                      params.get<double>("skew", 1.0), rng);
    };
    registry.add("zipf", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "a few hot racks receive most traffic (incast/outcast)";
    e.params = {{"hot_fraction", "fraction of racks that are hot", "0.1"},
                {"hot_share", "share of traffic hitting hot racks", "0.8"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256& rng) {
      return trace::stream_hotspot(racks, requests,
                                   params.get<double>("hot_fraction", 0.1),
                                   params.get<double>("hot_share", 0.8), rng);
    };
    registry.add("hotspot", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "fixed permutation traffic (one matching covers everything)";
    e.build = [](std::size_t racks, std::size_t requests, const ParamMap&,
                 const Xoshiro256& rng) {
      return trace::stream_permutation(racks, requests, rng);
    };
    registry.add("permutation", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "flow pool: spatial skew + bursts + optional working-set "
                "drift (the model behind the Facebook profiles)";
    e.params = {{"pairs", "size of the popular-pair universe", "1000"},
                {"skew", "Zipf skew over candidate pairs", "1.0"},
                {"burst", "mean flow burst length", "20"},
                {"active", "max concurrently active flows", "50"},
                {"arrival", "new-flow probability per step", "0.05"},
                {"drift", "requests between working-set drifts; 0 = none",
                 "0"},
                {"drift_fraction", "candidate fraction replaced per drift",
                 "0.1"},
                {"hub_fraction", "fraction of racks designated hot; 0 = off",
                 "0"},
                {"hub_bias", "per-endpoint probability of a hot rack", "0.8"},
                {"noise", "fraction of uniform background requests", "0"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256& rng) {
      return trace::stream_flow_pool(racks, requests, parse_flow_pool(params),
                                     rng);
    };
    registry.add("flow_pool", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "elephant flows over uniform mice (Hadoop-style shuffle)";
    e.params = {{"elephants", "number of heavy pairs", "16"},
                {"share", "traffic share carried by elephants", "0.7"},
                {"run", "mean elephant run length", "40"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256& rng) {
      return trace::stream_elephant_mice(
          racks, requests, params.get<std::size_t>("elephants", 16),
          params.get<double>("share", 0.7), params.get<double>("run", 40.0),
          rng);
    };
    registry.add("elephant_mice", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "adversarial round-robin over k+1 hub pairs (the Lemma 1 "
                "lower-bound shape; worst case for any online b <= k)";
    e.params = {{"k", "number of competing hub pairs minus one", "8"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256&) {
      return trace::stream_round_robin_star(
          racks, requests, params.get<std::size_t>("k", 8));
    };
    registry.add("round_robin_star", std::move(e));
  }
  registry.add("facebook_db",
               facebook("Facebook database cluster profile: strong skew, "
                        "long bursts",
                        trace::FacebookCluster::kDatabase));
  registry.add("facebook_web",
               facebook("Facebook web-service cluster profile: mild skew, "
                        "wide working set",
                        trace::FacebookCluster::kWebService));
  registry.add("facebook_hadoop",
               facebook("Facebook Hadoop cluster profile: elephants, "
                        "bursts, drift",
                        trace::FacebookCluster::kHadoop));
  {
    WorkloadEntry e;
    e.summary = "Microsoft/ProjecToR-like i.i.d. samples from a skewed "
                "traffic matrix";
    e.params = {{"rack_skew", "power-law exponent of rack activity", "1.2"},
                {"elephants", "extra super-hot matrix entries", "25"},
                {"boost", "weight multiplier for elephant entries", "30"}};
    e.build = [](std::size_t racks, std::size_t requests,
                 const ParamMap& params, const Xoshiro256& rng) {
      return trace::stream_microsoft_like(racks, requests,
                                          parse_microsoft(params), rng);
    };
    registry.add("microsoft", std::move(e));
  }
  {
    WorkloadEntry e;
    e.summary = "import a CSV trace (one 'src,dst' per line; '# racks=N' "
                "header optional)";
    e.params = {{"path", "CSV file to read", ""},
                {"limit", "truncate to the first N requests; 0 = all", "0"}};
    // The import is read whole; the stream owns it.
    e.build = [](std::size_t, std::size_t, const ParamMap& params,
                 const Xoshiro256&) -> std::unique_ptr<trace::TraceStream> {
      const std::string path = params.get<std::string>("path");
      // read_csv_file asserts (aborts) on unreadable files; spec-string
      // entry points must throw SpecError so drivers can report and exit.
      if (!std::ifstream(path).good())
        throw SpecError("workload 'csv': cannot open '" + path + "'");
      trace::Trace t = trace::read_csv_file(path);
      const std::size_t limit = params.get<std::size_t>("limit", 0);
      if (limit != 0 && limit < t.size()) t = t.prefix(limit);
      return std::make_unique<trace::MaterializedStream>(std::move(t));
    };
    registry.add("csv", std::move(e));
  }
}

}  // namespace rdcn::scenario
