// Theory bench: empirical competitive ratios on the paper's lower-bound
// constructions (§2.4).  The separations its tables show are tests:
// tests/adversary_test.cpp (the paging layer) and
// tests/lower_bound_test.cpp (the Lemma 1 star).
//
// Table 1: paging layer — cruel adversary vs deterministic engines shows
//          the Θ(b) wall; uniform adversary vs marking shows O(log b).
// Table 2: matching layer — adversarial round-robin star traffic, the
//          Lemma 1 embedding: deterministic BMA's cost rate grows with b
//          while R-BMA's stays near the log-curve.
#include <cmath>
#include <cstdio>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

void paging_table() {
  std::printf("== paging competitive ratios vs OPT (universe = b+1) ==\n");
  std::printf("%6s %14s %14s %14s %14s\n", "b", "lru_cruel", "fifo_cruel",
              "marking_unif", "2(ln b + 1)");
  const std::size_t steps = 60000;
  for (std::size_t b : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
    // Deterministic engines against their personal worst case.
    auto ratio_cruel = [&](paging::EngineKind kind) {
      auto engine = paging::make_engine(kind, b, Xoshiro256(1));
      const paging::CruelAdversary adv(b + 1);
      const auto seq = adv.drive(*engine, steps);
      const auto opt = paging::Belady::optimal_faults(b, seq);
      return opt == 0 ? 0.0
                      : static_cast<double>(engine->faults()) /
                            static_cast<double>(opt);
    };
    // Marking against the oblivious uniform adversary.
    paging::UniformAdversary uadv(b + 1, Xoshiro256(2));
    const auto useq = uadv.sequence(steps);
    paging::Marking marking(b, Xoshiro256(3));
    std::vector<paging::Key> ev;
    for (paging::Key k : useq) {
      ev.clear();
      marking.request(k, ev);
    }
    const auto uopt = paging::Belady::optimal_faults(b, useq);
    const double marking_ratio =
        uopt == 0 ? 0.0
                  : static_cast<double>(marking.faults()) /
                        static_cast<double>(uopt);
    std::printf("%6zu %14.2f %14.2f %14.2f %14.2f\n", b,
                ratio_cruel(paging::EngineKind::kLru),
                ratio_cruel(paging::EngineKind::kFifo), marking_ratio,
                2.0 * (std::log(static_cast<double>(b)) + 1.0));
  }
  std::printf(
      "shape: cruel columns grow linearly in b (deterministic Theta(b));\n"
      "       marking column tracks the 2(ln b + 1) curve (randomized "
      "O(log b)).\n\n");
}

void matching_table() {
  std::printf(
      "== matching layer on the Lemma-1 star embedding "
      "(adaptive adversary chasing BMA over b+1 hub pairs) ==\n");
  std::printf("%6s %16s %16s %16s\n", "b", "BMA_cost/req", "RBMA_cost/req",
              "Oblivious/req");
  const std::size_t racks = 80;
  const std::uint64_t alpha = 6;
  const net::Topology star = net::make_star(racks);
  for (std::size_t b : {2ul, 4ul, 8ul, 16ul, 32ul}) {
    const std::size_t steps = 40000;
    core::Instance inst;
    inst.distances = &star.distances;
    inst.b = b;
    inst.alpha = alpha;

    // Adaptive adversary, compiled against a deterministic victim copy.
    core::Bma victim(inst);
    const trace::Trace t =
        core::generate_chasing_trace(victim, racks, b, steps);

    core::Bma bma(inst);
    sim::run_to_completion(bma, t);

    double rbma_total = 0.0;
    const int seeds = 5;
    for (int s = 1; s <= seeds; ++s) {
      core::RBma rbma(inst, {.seed = static_cast<std::uint64_t>(s)});
      sim::run_to_completion(rbma, t);
      rbma_total += static_cast<double>(rbma.costs().total_cost());
    }
    core::Oblivious obl(inst);
    sim::run_to_completion(obl, t);

    const auto per = [&](double total) {
      return total / static_cast<double>(steps);
    };
    std::printf("%6zu %16.3f %16.3f %16.3f\n", b,
                per(static_cast<double>(bma.costs().total_cost())),
                per(rbma_total / seeds),
                per(static_cast<double>(obl.costs().total_cost())));
  }
  std::printf(
      "shape: the chase pins BMA at the 2-hop fixed-network rate plus "
      "churn for every b\n"
      "       (it never serves a request on a matching edge); R-BMA's "
      "random evictions\n"
      "       decorrelate from the (BMA-specific) chase and pay far less "
      "per request.\n\n");
}

}  // namespace

int main() {
  paging_table();
  matching_table();
  return 0;
}
