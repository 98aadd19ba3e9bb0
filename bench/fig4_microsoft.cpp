// Reproduces Figure 4 of the paper: Microsoft (ProjecToR) cluster.
// 50 racks, b in {3, 6, 9}, 1.75e6 requests sampled i.i.d. from a skewed
// traffic matrix (panels a, b, c).
//
// Trace substitution: synthetic gravity-model matrix with elephant
// entries, i.i.d. sampling — see DESIGN.md §3.  Expect SO-BMA to win
// clearly in panel (c): the trace has no temporal structure by design.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests = bench::request_count(argc, argv, 1'750'000);

  bench::FigureSetup setup;
  setup.figure = "Fig4";
  setup.num_racks = 50;
  setup.cache_sizes = {3, 6, 9};
  setup.alpha = 60;
  setup.quality_band = 1.15;  // see FigureSetup::quality_band

  Xoshiro256 rng(44);
  const trace::Trace t = trace::materialize(*trace::stream_microsoft_like(
      setup.num_racks, num_requests, {}, rng));
  bench::run_figure(setup, t);
  return 0;
}
