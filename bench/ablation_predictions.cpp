// Ablation: learning-augmented R-BMA (the paper's §5 future work).
//
// Sweeps prediction quality (oracle error rate) and trust, reporting the
// consistency/robustness trade-off: good predictions push routing cost
// toward the offline behaviour, while the uniform-random hedge bounds the
// damage of bad predictions.
#include <cstdio>
#include <memory>

#include "rdcn.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;
  const std::size_t num_requests =
      argc > 1 ? static_cast<std::size_t>(std::stoull(argv[1])) : 120'000;
  const std::size_t racks = 64, b = 8;
  const net::Topology topo = net::make_fat_tree(racks);

  Xoshiro256 rng(13);
  const trace::Trace t = trace::materialize(*trace::stream_facebook_like(
      trace::FacebookCluster::kDatabase, racks, num_requests, rng));

  core::Instance inst;
  inst.distances = &topo.distances;
  inst.b = b;
  inst.alpha = 60;

  auto mean_routing = [&](auto make_options) {
    double total = 0.0;
    const int seeds = 3;
    for (int s = 1; s <= seeds; ++s) {
      core::RBmaOptions opts = make_options();
      opts.seed = static_cast<std::uint64_t>(s);
      core::RBma alg(inst, opts);
      for (const core::Request& r : t) alg.serve(r);
      total += static_cast<double>(alg.costs().routing_cost);
    }
    return total / seeds;
  };

  const double plain =
      mean_routing([] { return core::RBmaOptions{}; });
  std::printf("== ablation: learning-augmented R-BMA (b=%zu) ==\n", b);
  std::printf("plain marking baseline routing: %.0f\n\n", plain);

  std::printf("-- prediction quality sweep (trust = 1.0) --\n");
  std::printf("%22s %14s %10s\n", "predictor", "routing", "vs plain");
  for (double err : {0.0, 0.1, 0.3, 0.6, 0.9}) {
    const double cost = mean_routing([&] {
      core::RBmaOptions opts;
      opts.predictor = std::make_shared<core::NoisyOraclePredictor>(
          t, err, Xoshiro256(99));
      opts.prediction_trust = 1.0;
      return opts;
    });
    std::printf("        oracle(err=%.1f) %14.0f %9.1f%%\n", err, cost,
                100.0 * (cost / plain - 1.0));
  }
  {
    const double cost = mean_routing([&] {
      core::RBmaOptions opts;
      opts.predictor = std::make_shared<core::EwmaPredictor>(2000.0);
      opts.prediction_trust = 1.0;
      return opts;
    });
    std::printf("%22s %14.0f %9.1f%%\n", "ewma(half-life 2k)", cost,
                100.0 * (cost / plain - 1.0));
  }

  std::printf("\n-- trust sweep (perfect oracle) --\n");
  std::printf("%10s %14s %10s\n", "trust", "routing", "vs plain");
  for (double trust : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double cost = mean_routing([&] {
      core::RBmaOptions opts;
      opts.predictor = std::make_shared<core::OraclePredictor>(t);
      opts.prediction_trust = trust;
      return opts;
    });
    std::printf("%10.2f %14.0f %9.1f%%\n", trust, cost,
                100.0 * (cost / plain - 1.0));
  }
  std::printf(
      "\nshape: perfect advice with full trust gives the best routing "
      "cost;\n"
      "       quality degradation decays gracefully toward (and is capped "
      "near)\n"
      "       the plain-marking baseline thanks to the random hedge.\n");
  return 0;
}
