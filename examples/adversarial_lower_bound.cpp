// Example: the power of randomization, demonstrated adversarially.
//
// Recreates the paper's §2.4 lower-bound story as a runnable experiment:
// on a star network, an adaptive adversary chases the deterministic BMA —
// it always requests a hub pair BMA does not currently have matched (the
// b-matching embedding of the paging lower bound).  Because BMA is
// deterministic the adversary compiles into a fixed trace; replaying that
// trace shows BMA pinned at the fixed-network rate while randomized R-BMA
// hedges its evictions and escapes the chase.
//
//   $ ./examples/adversarial_lower_bound
#include <cmath>
#include <cstdio>

#include "rdcn.hpp"

int main() {
  using namespace rdcn;
  const std::size_t racks = 70;
  const std::uint64_t alpha = 6;
  const std::size_t steps = 50'000;
  const net::Topology star = net::make_star(racks);

  std::printf(
      "star network, adaptive adversary chasing BMA over b+1 hub pairs, "
      "alpha=%llu\n"
      "%6s %14s %14s %12s %14s\n",
      static_cast<unsigned long long>(alpha), "b", "BMA/req", "R-BMA/req",
      "det/rand", "2(ln b+1)");

  for (std::size_t b : {2ul, 4ul, 8ul, 16ul, 32ul}) {
    core::Instance inst;
    inst.distances = &star.distances;
    inst.b = b;
    inst.alpha = alpha;

    core::Bma victim(inst);
    const trace::Trace t =
        core::generate_chasing_trace(victim, racks, b, steps);

    core::Bma bma(inst);
    sim::run_to_completion(bma, t);
    const double det =
        static_cast<double>(bma.costs().total_cost()) / steps;

    double rand_total = 0.0;
    const int seeds = 7;
    for (int s = 1; s <= seeds; ++s) {
      auto rbma = scenario::make_algorithm(
          "r_bma", inst, nullptr, static_cast<std::uint64_t>(s));
      sim::run_to_completion(*rbma, t);
      rand_total += static_cast<double>(rbma->costs().total_cost());
    }
    const double rnd = rand_total / seeds / steps;

    std::printf("%6zu %14.3f %14.3f %12.2f %14.2f\n", b, det, rnd, det / rnd,
                2.0 * (std::log(static_cast<double>(b)) + 1.0));
  }
  std::printf(
      "\nThe deterministic/randomized gap widens with b: this is the\n"
      "Theta(b) vs O(log b) separation of the paper (Theorem 4 and the\n"
      "PERFORMANCE'20 deterministic lower bound), observed empirically.\n");
  return 0;
}
