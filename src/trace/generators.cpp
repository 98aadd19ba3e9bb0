#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/param_map.hpp"

namespace rdcn::trace {

namespace {

/// Throws SpecError unless `ok`: `workload`'s parameter `key` (its spec
/// key) holds `value`, outside `range`.
template <typename T>
void require(bool ok, const char* workload, const char* key, T value,
             const std::string& range) {
  if (ok) return;
  std::ostringstream message;
  message << "workload '" << workload << "': parameter '" << key
          << "' must be " << range << ", got " << value;
  throw SpecError(message.str());
}

Request random_pair(std::size_t num_racks, Xoshiro256& rng) {
  const Rack u = static_cast<Rack>(rng.next_below(num_racks));
  Rack v = static_cast<Rack>(rng.next_below(num_racks - 1));
  if (v >= u) ++v;
  return Request::make(u, v);
}

/// Sets `r`'s bit in `seen` (one bit per pair slot); returns whether it
/// was clear.
bool mark_pair(std::vector<bool>& seen, const Request& r) {
  const std::size_t slot = pair_slot(pair_key(r));
  if (seen[slot]) return false;
  seen[slot] = true;
  return true;
}

/// Samples `count` distinct rack pairs uniformly at random.
std::vector<Request> sample_distinct_pairs(std::size_t num_racks,
                                           std::size_t count,
                                           Xoshiro256& rng) {
  const std::size_t all = pair_slots(num_racks);
  RDCN_ASSERT_MSG(count <= all, "more candidate pairs than exist");
  std::vector<Request> pairs;
  pairs.reserve(count);
  std::vector<bool> seen(all);
  while (pairs.size() < count) {
    const Request r = random_pair(num_racks, rng);
    if (mark_pair(seen, r)) pairs.push_back(r);
  }
  return pairs;
}

// Per-request emitters, each wrapped in an EmitterStream by its stream_*
// front end.  Each constructor checks the parameters and performs the
// generator's setup draws; each step() performs the per-request draws.
// The draw order is pinned by golden checksums (trace_stream_test).

class UniformEmitter {
 public:
  UniformEmitter(std::size_t num_racks, Xoshiro256& rng)
      : num_racks_(num_racks), rng_(rng) {
    RDCN_ASSERT(num_racks >= 2);
  }

  Request step() { return random_pair(num_racks_, rng_); }

 private:
  std::size_t num_racks_;
  Xoshiro256& rng_;
};

class ZipfPairsEmitter {
 public:
  ZipfPairsEmitter(std::size_t num_racks, double skew, Xoshiro256& rng)
      : rng_(rng),
        zipf_(num_racks * (num_racks - 1) / 2, checked_skew(skew)) {
    RDCN_ASSERT(num_racks >= 2);
    // Rank all pairs by a random permutation, then draw ranks from Zipf(s).
    pairs_.reserve(num_racks * (num_racks - 1) / 2);
    for (Rack u = 0; u < num_racks; ++u)
      for (Rack v = u + 1; v < num_racks; ++v)
        pairs_.push_back(Request{u, v});
    shuffle(pairs_.begin(), pairs_.end(), rng_);
  }

  Request step() { return pairs_[zipf_(rng_)]; }

 private:
  static double checked_skew(double skew) {
    require(skew >= 0.0, "zipf", "skew", skew, ">= 0");
    return skew;
  }

  Xoshiro256& rng_;
  std::vector<Request> pairs_;
  ZipfSampler zipf_;
};

class HotspotEmitter {
 public:
  HotspotEmitter(std::size_t num_racks, double hot_fraction, double hot_share,
                 Xoshiro256& rng)
      : num_racks_(num_racks), hot_share_(hot_share), rng_(rng) {
    if (num_racks < 4)
      throw SpecError("workload 'hotspot' needs at least 4 racks, got " +
                      std::to_string(num_racks));
    require(hot_fraction > 0.0 && hot_fraction < 1.0, "hotspot",
            "hot_fraction", hot_fraction, "in (0, 1)");
    require(hot_share >= 0.0 && hot_share <= 1.0, "hotspot", "hot_share",
            hot_share, "in [0, 1]");
    num_hot_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(hot_fraction * num_racks)));
    racks_.resize(num_racks);
    for (std::size_t i = 0; i < num_racks; ++i)
      racks_[i] = static_cast<Rack>(i);
    shuffle(racks_.begin(), racks_.end(), rng_);
    // racks_[0..num_hot_) are the hotspots.
  }

  Request step() {
    if (rng_.next_bool(hot_share_) && num_hot_ >= 1) {
      // One endpoint hot, the other uniform.
      const Rack h = racks_[rng_.next_below(num_hot_)];
      Rack o = static_cast<Rack>(rng_.next_below(num_racks_ - 1));
      if (o >= h) ++o;
      return Request::make(h, o);
    }
    return random_pair(num_racks_, rng_);
  }

 private:
  std::size_t num_racks_;
  double hot_share_;
  Xoshiro256& rng_;
  std::size_t num_hot_ = 0;
  std::vector<Rack> racks_;
};

class PermutationEmitter {
 public:
  PermutationEmitter(std::size_t num_racks, Xoshiro256& rng) : rng_(rng) {
    if (num_racks < 2 || num_racks % 2 != 0)
      throw SpecError(
          "workload 'permutation' needs an even number of racks, got " +
          std::to_string(num_racks));
    std::vector<Rack> perm(num_racks);
    for (std::size_t i = 0; i < num_racks; ++i) perm[i] = static_cast<Rack>(i);
    shuffle(perm.begin(), perm.end(), rng_);
    // Pair consecutive entries of the shuffled list.
    pairs_.reserve(num_racks / 2);
    for (std::size_t i = 0; i + 1 < num_racks; i += 2)
      pairs_.push_back(Request::make(perm[i], perm[i + 1]));
  }

  Request step() { return pairs_[rng_.next_below(pairs_.size())]; }

 private:
  Xoshiro256& rng_;
  std::vector<Request> pairs_;
};

class FlowPoolEmitter {
 public:
  FlowPoolEmitter(std::size_t num_racks, const FlowPoolParams& params,
                  Xoshiro256& rng)
      : num_racks_(num_racks),
        params_(checked(params)),
        rng_(rng),
        zipf_(std::min(params_.candidate_pairs,
                       num_racks * (num_racks - 1) / 2),
              params_.zipf_skew),
        // P(burst continues) chosen so the mean geometric length matches.
        p_end_(1.0 / params_.mean_burst_length) {
    RDCN_ASSERT(num_racks >= 2);
    const std::size_t all_pairs = num_racks * (num_racks - 1) / 2;
    const std::size_t num_candidates =
        std::min(params_.candidate_pairs, all_pairs);

    // Optional hub structure: designate hot racks and bias candidate
    // endpoints toward them.
    if (params_.hub_fraction > 0.0) {
      const std::size_t num_hubs = std::max<std::size_t>(
          2, static_cast<std::size_t>(params_.hub_fraction *
                                      static_cast<double>(num_racks)));
      std::vector<Rack> racks(num_racks);
      for (std::size_t i = 0; i < num_racks; ++i)
        racks[i] = static_cast<Rack>(i);
      shuffle(racks.begin(), racks.end(), rng_);
      hubs_.assign(racks.begin(),
                   racks.begin() + static_cast<std::ptrdiff_t>(num_hubs));
    }

    if (hubs_.empty()) {
      candidates_ = sample_distinct_pairs(num_racks, num_candidates, rng_);
    } else {
      candidates_.reserve(num_candidates);
      std::vector<bool> seen(all_pairs);
      std::size_t attempts = 0;
      while (candidates_.size() < num_candidates) {
        const Request r = sample_candidate();
        // Hub-biased sampling can exhaust the hub-pair universe; give up on
        // distinctness after enough rejections and allow duplicates (they
        // merely deepen the skew).
        if (mark_pair(seen, r) || ++attempts > 50 * num_candidates) {
          candidates_.push_back(r);
        }
      }
    }
    active_.reserve(params_.max_active_flows);
  }

  Request step() {
    // Working-set drift: refresh part of the candidate set periodically.
    if (params_.drift_period > 0 && emitted_ > 0 &&
        emitted_ % params_.drift_period == 0) {
      const std::size_t refresh = static_cast<std::size_t>(
          params_.drift_fraction * static_cast<double>(candidates_.size()));
      for (std::size_t r = 0; r < refresh; ++r) {
        const std::size_t slot = rng_.next_below(candidates_.size());
        candidates_[slot] = hubs_.empty() ? random_pair(num_racks_, rng_)
                                          : sample_candidate();
      }
    }

    if (params_.noise_fraction > 0.0 &&
        rng_.next_bool(params_.noise_fraction)) {
      ++emitted_;
      return random_pair(num_racks_, rng_);
    }
    if (active_.empty() ||
        (active_.size() < params_.max_active_flows &&
         rng_.next_bool(params_.new_flow_prob))) {
      spawn_flow();
    }
    const std::size_t i = rng_.next_below(active_.size());
    const Request out = active_[i].pair;
    ++emitted_;
    if (--active_[i].remaining == 0) {
      active_[i] = active_.back();
      active_.pop_back();
    }
    return out;
  }

 private:
  struct Flow {
    Request pair;
    std::size_t remaining;
  };

  static const FlowPoolParams& checked(const FlowPoolParams& p) {
    require(p.candidate_pairs >= 1, "flow_pool", "pairs", p.candidate_pairs,
            ">= 1");
    require(p.zipf_skew >= 0.0, "flow_pool", "skew", p.zipf_skew, ">= 0");
    require(p.mean_burst_length >= 1.0 && std::isfinite(p.mean_burst_length),
            "flow_pool", "burst", p.mean_burst_length, "finite and >= 1");
    require(p.max_active_flows >= 1, "flow_pool", "active",
            p.max_active_flows, ">= 1");
    // hub_fraction x racks hubs are copied out of the rack list.
    require(p.hub_fraction >= 0.0 && p.hub_fraction <= 1.0, "flow_pool",
            "hub_fraction", p.hub_fraction, "in [0, 1]");
    return p;
  }

  Rack sample_endpoint() {
    if (!hubs_.empty() && rng_.next_bool(params_.hub_bias))
      return hubs_[rng_.next_below(hubs_.size())];
    return static_cast<Rack>(rng_.next_below(num_racks_));
  }

  Request sample_candidate() {
    while (true) {
      const Rack u = sample_endpoint();
      const Rack v = sample_endpoint();
      if (u != v) return Request::make(u, v);
    }
  }

  void spawn_flow() {
    const Request pair = candidates_[zipf_(rng_)];
    const std::size_t len = 1 + sample_geometric(rng_, p_end_);
    active_.push_back({pair, len});
  }

  std::size_t num_racks_;
  FlowPoolParams params_;
  Xoshiro256& rng_;
  std::vector<Rack> hubs_;
  std::vector<Request> candidates_;
  ZipfSampler zipf_;
  double p_end_;
  std::vector<Flow> active_;
  std::size_t emitted_ = 0;
};

class ElephantMiceEmitter {
 public:
  ElephantMiceEmitter(std::size_t num_racks, std::size_t num_elephants,
                      double elephant_share, double mean_run_length,
                      Xoshiro256& rng)
      : num_racks_(num_racks),
        elephant_share_(elephant_share),
        p_end_(1.0 / mean_run_length),
        rng_(rng) {
    RDCN_ASSERT(num_racks >= 2);
    const std::size_t all_pairs = num_racks * (num_racks - 1) / 2;
    require(num_elephants >= 1 && num_elephants <= all_pairs, "elephant_mice",
            "elephants", num_elephants,
            "in [1, " + std::to_string(all_pairs) + "] (the rack pairs)");
    require(elephant_share >= 0.0 && elephant_share <= 1.0, "elephant_mice",
            "share", elephant_share, "in [0, 1]");
    require(mean_run_length >= 1.0 && std::isfinite(mean_run_length),
            "elephant_mice", "run", mean_run_length, "finite and >= 1");
    elephants_ = sample_distinct_pairs(num_racks, num_elephants, rng_);
  }

  Request step() {
    // An in-progress elephant run continues without further draws; the
    // run length was sampled when it started (truncation at the trace end
    // simply leaves the run unfinished, exactly as the one-shot loop did).
    if (run_remaining_ > 0) {
      --run_remaining_;
      return run_pair_;
    }
    if (rng_.next_bool(elephant_share_)) {
      run_pair_ = elephants_[rng_.next_below(elephants_.size())];
      run_remaining_ = sample_geometric(rng_, p_end_);  // 1 + g, one emitted now
      return run_pair_;
    }
    return random_pair(num_racks_, rng_);
  }

 private:
  std::size_t num_racks_;
  double elephant_share_;
  double p_end_;
  Xoshiro256& rng_;
  std::vector<Request> elephants_;
  Request run_pair_{0, 1};
  std::size_t run_remaining_ = 0;
};

class RoundRobinStarEmitter {
 public:
  RoundRobinStarEmitter(std::size_t num_racks, std::size_t k,
                        [[maybe_unused]] Xoshiro256& rng)
      : k_(k) {
    // k + 1 spokes around rack 0.
    require(k >= 1 && k + 2 <= num_racks, "round_robin_star", "k", k,
            "in [1, racks - 2] on " + std::to_string(num_racks) + " racks");
  }

  Request step() {
    const Rack other = static_cast<Rack>(1 + (i_++ % (k_ + 1)));
    return Request::make(0, other);
  }

 private:
  std::size_t k_;
  std::size_t i_ = 0;
};

template <typename Emitter, typename... Args>
std::unique_ptr<TraceStream> make_stream(std::size_t num_racks,
                                         std::string name, std::size_t total,
                                         const Xoshiro256& rng,
                                         Args&&... args) {
  return std::make_unique<EmitterStream<Emitter>>(
      num_racks, std::move(name), total, rng, std::forward<Args>(args)...);
}

}  // namespace

std::unique_ptr<TraceStream> stream_uniform(std::size_t num_racks,
                                            std::size_t num_requests,
                                            const Xoshiro256& rng) {
  return make_stream<UniformEmitter>(num_racks, "uniform", num_requests, rng);
}

std::unique_ptr<TraceStream> stream_zipf_pairs(std::size_t num_racks,
                                               std::size_t num_requests,
                                               double skew,
                                               const Xoshiro256& rng) {
  return make_stream<ZipfPairsEmitter>(num_racks, "zipf", num_requests, rng,
                                       skew);
}

std::unique_ptr<TraceStream> stream_hotspot(std::size_t num_racks,
                                            std::size_t num_requests,
                                            double hot_fraction,
                                            double hot_share,
                                            const Xoshiro256& rng) {
  return make_stream<HotspotEmitter>(num_racks, "hotspot", num_requests, rng,
                                     hot_fraction, hot_share);
}

std::unique_ptr<TraceStream> stream_permutation(std::size_t num_racks,
                                                std::size_t num_requests,
                                                const Xoshiro256& rng) {
  return make_stream<PermutationEmitter>(num_racks, "permutation",
                                         num_requests, rng);
}

std::unique_ptr<TraceStream> stream_flow_pool(std::size_t num_racks,
                                              std::size_t num_requests,
                                              const FlowPoolParams& params,
                                              const Xoshiro256& rng) {
  return make_stream<FlowPoolEmitter>(num_racks, "flow_pool", num_requests,
                                      rng, params);
}

std::unique_ptr<TraceStream> stream_elephant_mice(
    std::size_t num_racks, std::size_t num_requests,
    std::size_t num_elephants, double elephant_share, double mean_run_length,
    const Xoshiro256& rng) {
  return make_stream<ElephantMiceEmitter>(num_racks, "elephant_mice",
                                          num_requests, rng, num_elephants,
                                          elephant_share, mean_run_length);
}

std::unique_ptr<TraceStream> stream_round_robin_star(std::size_t num_racks,
                                                     std::size_t num_requests,
                                                     std::size_t k) {
  return make_stream<RoundRobinStarEmitter>(num_racks, "round_robin_star",
                                            num_requests, Xoshiro256(0), k);
}

}  // namespace rdcn::trace
