// Reproduces Figure 3 of the paper: Facebook Hadoop cluster.
// 100 racks, b in {6, 12, 18}, 1.85e5 requests (panels a, b, c).
//
// Trace substitution: synthetic Hadoop model (elephant bursts + working-set
// drift between job waves) — see DESIGN.md §3.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 185'000);

  bench::FigureSetup setup;
  setup.figure = "Fig3";
  setup.num_racks = 100;
  setup.cache_sizes = {6, 12, 18};
  setup.alpha = 60;

  Xoshiro256 rng(43);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kHadoop, setup.num_racks, num_requests, rng));
  bench::run_figure(setup, t);
  return 0;
}
