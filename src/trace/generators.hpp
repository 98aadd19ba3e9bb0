// rdcn: elementary synthetic workload generators.
//
// These are the building blocks for the Facebook-like and Microsoft-like
// cluster models (facebook_like.hpp / microsoft_like.hpp) and are exposed
// directly for controlled experiments: each generator isolates one property
// (spatial skew, temporal burstiness, adversarial structure, ...) so
// ablations can vary a single axis.
//
// Every generator is a TraceStream: it owns a snapshot of the caller's RNG
// (the caller's generator is not advanced) and produces its requests chunk
// by chunk, so a replay never holds the full trace in memory; wrap it in
// trace::materialize() for a Trace.  Generator setup (pair tables,
// samplers) happens at stream construction; per-request state is O(active
// flows), not O(requests).  Parameters outside their valid range raise
// SpecError naming the parameter by its workload spec key.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::trace {

/// Uniform i.i.d. pairs — no structure at all (the hardest case for any
/// demand-aware scheme; both BMA and R-BMA degrade to Oblivious).
std::unique_ptr<TraceStream> stream_uniform(std::size_t num_racks,
                                            std::size_t num_requests,
                                            const Xoshiro256& rng);

/// Zipf-skewed i.i.d. pairs: pairs ranked by a random permutation, request
/// probability proportional to 1/rank^s.  Pure spatial skew, zero temporal
/// structure.
std::unique_ptr<TraceStream> stream_zipf_pairs(std::size_t num_racks,
                                               std::size_t num_requests,
                                               double skew,
                                               const Xoshiro256& rng);

/// Hotspot: a fraction `hot_fraction` of racks receive `hot_share` of all
/// traffic (incast/outcast-style concentration).  Needs at least 4 racks.
std::unique_ptr<TraceStream> stream_hotspot(std::size_t num_racks,
                                            std::size_t num_requests,
                                            double hot_fraction,
                                            double hot_share,
                                            const Xoshiro256& rng);

/// Fixed permutation traffic: rack i talks only to π(i) — the best case
/// for a b-matching (a single matching covers everything).  Needs an even
/// number of racks.
std::unique_ptr<TraceStream> stream_permutation(std::size_t num_racks,
                                                std::size_t num_requests,
                                                const Xoshiro256& rng);

/// Parameters of the flow-pool generator: a pool of concurrently active
/// "flows" (rack pairs emitting bursts).  Each step either starts a new
/// flow (probability `new_flow_prob`, pair drawn from a Zipf popularity
/// over a fixed candidate pair set) or continues a uniformly random active
/// flow.  Flow lengths are geometric with mean `mean_burst_length`.
/// Every `drift_period` requests, a random `drift_fraction` of the
/// candidate pair set is replaced (working-set drift).
struct FlowPoolParams {
  std::size_t candidate_pairs = 1000;  ///< size of the popular-pair universe
  double zipf_skew = 1.0;              ///< spatial skew over candidates
  double mean_burst_length = 20.0;     ///< temporal locality knob
  std::size_t max_active_flows = 50;   ///< interleaving degree
  double new_flow_prob = 0.05;         ///< flow arrival intensity
  std::size_t drift_period = 0;        ///< 0 = no drift
  double drift_fraction = 0.1;
  /// Hub structure: a fraction of racks is designated "hot"; candidate
  /// pair endpoints are drawn from the hot set with probability hub_bias
  /// (per endpoint).  Concentrating demand on few racks creates per-rack
  /// degree contention — the regime where the cache size b matters.
  double hub_fraction = 0.0;  ///< 0 disables hub structure
  double hub_bias = 0.8;
  /// Background noise: fraction of requests drawn uniformly from ALL rack
  /// pairs (scattered one-off traffic no matching can capture — real
  /// traces have a long tail of such pairs, which caps the achievable
  /// routing-cost reduction).
  double noise_fraction = 0.0;
};

/// The main structured generator: spatial skew + temporal burstiness +
/// optional working-set drift.  This is the model behind the Facebook-like
/// cluster profiles.
std::unique_ptr<TraceStream> stream_flow_pool(std::size_t num_racks,
                                              std::size_t num_requests,
                                              const FlowPoolParams& params,
                                              const Xoshiro256& rng);

/// Elephants and mice: `num_elephants` heavy pairs carry `elephant_share`
/// of the traffic in long runs; the rest is uniform mice.  Models
/// Hadoop-style shuffle traffic.
std::unique_ptr<TraceStream> stream_elephant_mice(
    std::size_t num_racks, std::size_t num_requests,
    std::size_t num_elephants, double elephant_share, double mean_run_length,
    const Xoshiro256& rng);

/// Adversarial round-robin over k+1 pairs sharing a common rack (the star
/// lower-bound shape of Lemma 1 projected onto a general topology): cycles
/// 0-1, 0-2, ..., 0-(k+1), repeating.  Forces eviction churn at rack 0 for
/// any online algorithm with degree cap b <= k.  Deterministic: no RNG.
std::unique_ptr<TraceStream> stream_round_robin_star(std::size_t num_racks,
                                                     std::size_t num_requests,
                                                     std::size_t k);

}  // namespace rdcn::trace
