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
//
// State: each unordered pair's Theorem 1 counter and lazy mark share one
// 8-byte entry of a triangular array indexed by trace::pair_slot
// (racks·(racks−1)/2 entries: 39 KiB at 100 racks, 4 MB at 1000), and
// the threshold ⌈α/ℓ⌉ of every distance ℓ = 1..ℓmax is a table built
// once.  A request that is not special costs one membership bit, one
// distance, one threshold and one counter load, with no branch on the
// membership and no divide; only special requests (about 6% at the
// paper's α = 60) leave the loop for the paging engines.
#pragma once

#include <memory>
#include <vector>

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

  /// Devirtualized chunk loop: one membership bit, one distance, one
  /// threshold and one counter load per request.  Routing is a select on
  /// the membership bit, the distance indexes both the routing cost and
  /// the ⌈α/ℓ⌉ table, and routing commits per chunk; a special request
  /// calls out of the loop.
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
    return pairs_[pair_slot(key)].marked;
  }

  /// Test hook: number of matching edges currently marked for lazy removal.
  std::size_t marked_count() const noexcept { return marked_count_; }

  /// Verifies the Theorem 2 intersection invariant in both directions: a
  /// pair is an unmarked matching edge iff it is cached at both endpoints
  /// (eager eviction never marks, so there it is the strict form).
  /// O(edges + racks·b); test use.
  bool check_intersection_invariant() const;

 private:
  /// Per-pair record, 8 bytes: the Theorem 1 request counter and the lazy
  /// removal mark share one entry of the triangular array `pairs_`, so the
  /// request path resolves both with one load.  `marked` is only ever true
  /// for keys currently in the matching.
  struct PairCounter {
    std::uint32_t counter = 0;  ///< requests since last special request
    bool marked = false;        ///< lazily-removed matching edge?
  };
  static_assert(sizeof(PairCounter) == 8);

  /// Theorem 2 step for a special request: forward to both endpoint
  /// engines, process evictions, re-establish the intersection invariant.
  /// Kept out of line: inlined, it makes serve_batch's loop spill its
  /// accumulators on every request, not only on the special ones.
  [[gnu::noinline]] void special_request(const Request& r, std::uint64_t key);

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
  std::vector<PairCounter> pairs_;  ///< indexed by pair_slot(key)
  /// Theorem 1 threshold by distance: ke_[ℓ] = ⌈α/ℓ⌉ for ℓ = 1..ℓmax.
  std::vector<std::uint64_t> ke_;
  std::size_t marked_count_ = 0;
  std::vector<paging::Key> evicted_scratch_;
  std::uint64_t specials_ = 0;
};

}  // namespace rdcn::core
