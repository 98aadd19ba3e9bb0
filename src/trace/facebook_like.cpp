#include "trace/facebook_like.hpp"

namespace rdcn::trace {

const char* facebook_cluster_name(FacebookCluster cluster) {
  switch (cluster) {
    case FacebookCluster::kDatabase: return "database";
    case FacebookCluster::kWebService: return "web";
    case FacebookCluster::kHadoop: return "hadoop";
  }
  return "unknown";
}

FlowPoolParams facebook_params(FacebookCluster cluster,
                               std::size_t num_racks) {
  FlowPoolParams p;
  switch (cluster) {
    case FacebookCluster::kDatabase:
      // SQL serving: a stable, strongly skewed set of hot partition pairs
      // concentrated on a fifth of the racks (hub structure — database
      // shards are colocated), long request trains per pair (strong
      // temporal locality).
      p.candidate_pairs = 20 * num_racks;
      p.zipf_skew = 1.0;
      p.mean_burst_length = 60.0;
      p.max_active_flows = 96;
      p.new_flow_prob = 0.12;
      p.drift_period = 0;  // hot set is stable over the trace
      p.hub_fraction = 0.2;
      p.hub_bias = 0.85;
      p.noise_fraction = 0.30;
      break;
    case FacebookCluster::kWebService:
      // Stateless frontends fan out widely: weak skew, short bursts, many
      // concurrently active pairs, demand spread over most of the fabric.
      p.candidate_pairs = 25 * num_racks;
      p.zipf_skew = 0.6;
      p.mean_burst_length = 6.0;
      p.max_active_flows = 256;
      p.new_flow_prob = 0.5;
      p.drift_period = 0;
      p.hub_fraction = 0.5;
      p.hub_bias = 0.5;
      p.noise_fraction = 0.45;
      break;
    case FacebookCluster::kHadoop:
      // Batch shuffle: bursts from a moderate elephant set concentrated on
      // the job's racks; the active mix changes over the trace
      // (working-set drift between job waves).
      p.candidate_pairs = 12 * num_racks;
      p.zipf_skew = 0.95;
      p.mean_burst_length = 35.0;
      p.max_active_flows = 96;
      p.new_flow_prob = 0.15;
      p.drift_period = 25000;
      p.drift_fraction = 0.2;
      p.hub_fraction = 0.3;
      p.hub_bias = 0.7;
      p.noise_fraction = 0.35;
      break;
  }
  return p;
}

std::unique_ptr<TraceStream> stream_facebook_like(FacebookCluster cluster,
                                                  std::size_t num_racks,
                                                  std::size_t num_requests,
                                                  const Xoshiro256& rng) {
  const FlowPoolParams params = facebook_params(cluster, num_racks);
  auto stream = stream_flow_pool(num_racks, num_requests, params, rng);
  stream->set_name(std::string("facebook_") + facebook_cluster_name(cluster));
  return stream;
}

}  // namespace rdcn::trace
