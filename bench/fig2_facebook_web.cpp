// Reproduces Figure 2 of the paper: Facebook web-service cluster.
// 100 racks, b in {6, 12, 18}, 4.0e5 requests (panels a, b, c).
//
// Trace substitution: synthetic web-service model (mild skew, short
// bursts, wide working set) — see DESIGN.md §3.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 400'000);

  bench::FigureSetup setup;
  setup.figure = "Fig2";
  setup.num_racks = 100;
  setup.cache_sizes = {6, 12, 18};
  setup.alpha = 60;

  Xoshiro256 rng(42);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kWebService, setup.num_racks, num_requests,
      rng));
  bench::run_figure(setup, t);
  return 0;
}
