// rdcn: Facebook-like datacenter cluster workloads.
//
// The paper (§3.1) evaluates on production traces from three Facebook
// clusters (Roy et al., SIGCOMM'15): a database cluster (SQL serving), a
// web-service cluster, and a Hadoop batch cluster.  Those traces are not
// publicly redistributable, so this module synthesizes traces that match
// the properties the paper (and Avin et al., SIGMETRICS'20, which the paper
// cites for trace structure) relies on:
//
//   database     strong spatial skew and strong temporal locality —
//                few rack pairs dominate and repeat in long bursts
//                (cache-friendly; where demand-aware matchings shine),
//   web service  mild skew, short bursts, wide active working set —
//                traffic spread broadly across many rack pairs,
//   hadoop       elephant/mice mixture with pronounced bursts from shuffle
//                stages, moderate skew, plus working-set drift across job
//                waves.
//
// The generators are deliberately simple compositions of the primitives in
// generators.hpp so every knob is auditable.  See DESIGN.md §3 for the
// substitution argument.
#pragma once

#include "common/rng.hpp"
#include "trace/generators.hpp"

namespace rdcn::trace {

enum class FacebookCluster {
  kDatabase,
  kWebService,
  kHadoop,
};

/// Human-readable cluster name ("database" | "web" | "hadoop").
const char* facebook_cluster_name(FacebookCluster cluster);

/// Flow-pool parameters modelling the given cluster on `num_racks` racks.
FlowPoolParams facebook_params(FacebookCluster cluster,
                               std::size_t num_racks);

/// Streams a synthetic trace for one Facebook-like cluster (a flow pool
/// with facebook_params; RNG snapshotted, see trace/trace_stream.hpp).
/// The paper uses num_racks = 100 and trace lengths of 3.5e5 (database),
/// 4.0e5 (web service), and 1.85e5 (hadoop) requests.
std::unique_ptr<TraceStream> stream_facebook_like(FacebookCluster cluster,
                                                  std::size_t num_racks,
                                                  std::size_t num_requests,
                                                  const Xoshiro256& rng);

}  // namespace rdcn::trace
