#include "core/r_bma.hpp"

#include "common/rng.hpp"

namespace rdcn::core {

RBma::RBma(const Instance& instance, const RBmaOptions& options)
    : OnlineBMatcher(instance), options_(options) {
  Xoshiro256 master_rng(options.seed);
  engines_.reserve(instance.num_racks());
  for (std::size_t v = 0; v < instance.num_racks(); ++v) {
    engines_.push_back(
        paging::make_engine(options.engine, b(), master_rng.split(v)));
  }
}

std::string RBma::name() const {
  return "r_bma[" + paging::engine_name(options_.engine) +
         (options_.lazy_eviction ? ",lazy]" : ",eager]");
}

std::uint64_t RBma::total_paging_faults() const {
  std::uint64_t faults = 0;
  for (const auto& e : engines_) faults += e->faults();
  return faults;
}

void RBma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const std::uint64_t a = alpha();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    // One-request lookahead: the Theorem 1 counter probe is the per-request
    // memory dependency; start pulling the next pair's record now.
    if (i + 1 < batch.size()) pairs_.prefetch(pair_key(batch[i + 1]));
    RDCN_DCHECK(r.u != r.v);
    const std::uint64_t key = pair_key(r);
    // Route with the current matching (membership checked before any
    // reconfiguration below).
    const bool matched = matching_view().has(r.u, r.v);
    const std::uint64_t d = dist(r.u, r.v);
    acc.routing_cost += matched ? 1 : d;
    ++acc.requests;
    acc.direct_serves += matched ? 1 : 0;

    // Theorem 1 reduction: act only on every ke-th request to this pair,
    // ke = ceil(alpha / dist).
    const std::uint64_t ke = (a + d - 1) / d;
    PairCounter& state = *pairs_.try_emplace(key).first;
    if (++state.counter < ke) continue;
    state.counter = 0;
    ++specials_;
    special_request(r, key);
  }
  commit_routing(acc);
}

void RBma::special_request(const Request& r, std::uint64_t key) {
  // Theorem 2 reduction: forward the special request to the paging engines
  // at both endpoints; a request always ends with the pair cached there.
  evicted_scratch_.clear();
  engines_[r.u]->request(key, evicted_scratch_);
  engines_[r.v]->request(key, evicted_scratch_);
  handle_evictions(evicted_scratch_);

  // Intersection invariant: the pair is now in both caches, so it becomes
  // (or stays) a matching edge.
  ensure_matched(r.u, r.v);
}

void RBma::handle_evictions(const std::vector<paging::Key>& evicted) {
  for (const paging::Key key : evicted) {
    if (!matching_view().has_key(key)) continue;  // was never doubly cached
    if (options_.lazy_eviction) {
      // Keep the edge until capacity forces pruning.  A cached key was
      // requested at some point, so its record exists already.
      set_marked(*pairs_.try_emplace(key).first, true);
    } else {
      remove_matching_edge_key(key);
    }
  }
}

void RBma::ensure_matched(Rack u, Rack v) {
  const std::uint64_t key = pair_key(u, v);
  if (matching_view().has_key(key)) {
    // A lazily marked edge that is requested again is doubly cached once
    // more — resurrect it for free (no reconfiguration happened).
    if (PairCounter* s = pairs_.find(key)) set_marked(*s, false);
    return;
  }
  if (matching_view().full(u)) prune_marked_at(u);
  if (matching_view().full(v)) prune_marked_at(v);
  add_matching_edge(u, v);
}

void RBma::prune_marked_at(Rack w) {
  // A marked incident edge must exist: all unmarked matched edges at w are
  // cached at w, the cache holds <= b keys, and the incoming pair occupies
  // one cache slot without being matched yet.
  const auto& neighbors = matching_view().neighbors(w);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const std::uint64_t key = pair_key(w, neighbors[i]);
    PairCounter* s = pairs_.find(key);
    if (s != nullptr && s->marked) {
      set_marked(*s, false);
      remove_matching_edge_key(key);
      return;
    }
  }
  RDCN_ASSERT_MSG(false,
                  "lazy eviction invariant violated: no marked edge to prune");
}

bool RBma::check_intersection_invariant() const {
  // Every unmarked matching edge is cached at both endpoints...
  for (const std::uint64_t key : matching_view().edge_keys()) {
    if (marked_for_removal(key)) continue;
    if (!engines_[pair_lo(key)]->contains(key) ||
        !engines_[pair_hi(key)]->contains(key))
      return false;
  }
  // ...and every pair cached at both endpoints is an unmarked matching
  // edge.  Each pair is checked once, from its lower endpoint.
  for (std::size_t w = 0; w < engines_.size(); ++w) {
    for (const paging::Key key : engines_[w]->cached_keys()) {
      if (pair_lo(key) != w || !engines_[pair_hi(key)]->contains(key))
        continue;
      if (!matching_view().has_key(key) || marked_for_removal(key))
        return false;
    }
  }
  return options_.lazy_eviction || marked_count_ == 0;
}

}  // namespace rdcn::core
