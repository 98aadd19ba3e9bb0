// rdcn: R-BMA — the paper's randomized online (b,a)-matching algorithm.
//
// Composition of the two reductions of §2:
//
//   Theorem 1 (general → uniform): per node pair e, only every
//   ke = ⌈α/ℓe⌉-th request is *special*; the algorithm reconfigures only on
//   special requests.  This costs a factor 4γ, γ = 1 + ℓmax/α ≈ 1.
//
//   Theorem 2 (uniform → paging): every rack v runs an independent
//   (b,a)-paging algorithm over the node pairs incident to v, with cache
//   capacity b.  A special request {u,v} is passed to the engines at u and
//   at v.  The matching maintains the intersection invariant:
//
//       e ∈ M  ⇐⇒  e is cached at both endpoints of e.
//
// With the randomized marking engine (2·ln(b/(b−a+1))-competitive paging,
// Young '91) the composition is O(γ·log(b/(b−a+1)))-competitive
// (Corollary 3) — exponentially better than any deterministic algorithm.
//
// Eviction handling (footnote 2 of the paper): when a pair leaves one
// endpoint's cache, the *eager* policy removes it from M immediately
// (exactly the invariant); the *lazy* policy only marks it and prunes
// marked edges when a rack's matching degree would exceed b — keeping
// useful-but-evicted shortcuts alive longer at zero extra reconfiguration
// cost.  Lazy is the paper's experimental default.
#pragma once

#include <memory>
#include <vector>

#include "common/flat_hash.hpp"
#include "core/online_matcher.hpp"
#include "paging/factory.hpp"

namespace rdcn::core {

struct RBmaOptions {
  paging::EngineKind engine = paging::EngineKind::kMarking;
  bool lazy_eviction = true;
  std::uint64_t seed = 1;
};

class RBma final : public OnlineBMatcher {
 public:
  RBma(const Instance& instance, const RBmaOptions& options);

  std::string name() const override;

  /// Devirtualized chunk loop: one matching-membership probe and one
  /// distance load per request, shared by routing and the Theorem 1
  /// counter threshold, with routing accumulation committed per chunk.
  void serve_batch(std::span<const Request> batch) override;

  /// Diagnostics: total special requests forwarded to paging engines.
  std::uint64_t special_requests() const noexcept { return specials_; }

  /// Diagnostics: paging faults summed over all per-rack engines.
  std::uint64_t total_paging_faults() const;

  /// Test hook: is `e` currently cached at rack `w`?
  bool cached_at(Rack w, std::uint64_t key) const {
    return engines_[w]->contains(key);
  }

  /// Test hook: is `e` marked for (lazy) removal?
  bool marked_for_removal(std::uint64_t key) const {
    const PairCounter* s = pairs_.find(key);
    return s != nullptr && s->marked;
  }

  /// Test hook: number of matching edges currently marked for lazy removal.
  std::size_t marked_count() const noexcept { return marked_count_; }

  /// Verifies the Theorem 2 intersection invariant in both directions: a
  /// pair is an unmarked matching edge iff it is cached at both endpoints
  /// (eager eviction never marks, so there it is the strict form).
  /// O(edges + racks·b); test use.
  bool check_intersection_invariant() const;

 private:
  /// Unified per-pair record: the Theorem 1 request counter and the lazy
  /// removal mark share one map entry, so the request path resolves both
  /// with a single tagged probe.  `marked` is only ever true for keys
  /// currently in the matching.
  struct PairCounter {
    std::uint32_t counter = 0;  ///< requests since last special request
    bool marked = false;        ///< lazily-removed matching edge?
  };

  /// Theorem 2 step for a special request: forward to both endpoint
  /// engines, process evictions, re-establish the intersection invariant.
  void special_request(const Request& r, std::uint64_t key);

  /// Flips the mark on `s`, keeping the running marked-edge count exact.
  void set_marked(PairCounter& s, bool marked) {
    if (s.marked != marked) {
      s.marked = marked;
      if (marked) {
        ++marked_count_;
      } else {
        --marked_count_;
      }
    }
  }

  /// Handles keys evicted from rack w's cache.
  void handle_evictions(const std::vector<paging::Key>& evicted);

  /// Ensures e={u,v} (already in both caches) is in M, pruning lazily
  /// marked edges if an endpoint is at its degree cap.
  void ensure_matched(Rack u, Rack v);

  /// Removes one marked edge incident to w from M (must exist).
  void prune_marked_at(Rack w);

  RBmaOptions options_;
  std::vector<std::unique_ptr<paging::PagingAlgorithm>> engines_;
  FlatMap<PairCounter> pairs_;  ///< unified per-pair state (one probe)
  std::size_t marked_count_ = 0;
  std::vector<paging::Key> evicted_scratch_;
  std::uint64_t specials_ = 0;
};

}  // namespace rdcn::core
