// Reproduces Figure 1 of the paper: Facebook database cluster.
// 100 racks, b in {6, 12, 18}, 3.5e5 requests (panels a, b, c).
//
// Trace substitution: synthetic database-cluster model (strong skew +
// strong temporal locality) — see DESIGN.md §3.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  // Optional scale override for quick runs: fig1_facebook_db [num_requests].
  const std::size_t num_requests = bench::request_count(argc, argv, 350'000);

  bench::FigureSetup setup;
  setup.figure = "Fig1";
  setup.num_racks = 100;
  setup.cache_sizes = {6, 12, 18};
  setup.alpha = 60;

  Xoshiro256 rng(41);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, setup.num_racks, num_requests, rng));
  bench::run_figure(setup, t);
  return 0;
}
