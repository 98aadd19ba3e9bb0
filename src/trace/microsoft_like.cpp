#include "trace/microsoft_like.hpp"

#include <algorithm>
#include <cmath>

#include "common/param_map.hpp"

namespace rdcn::trace {

std::vector<double> make_microsoft_matrix(std::size_t num_racks,
                                          const MicrosoftParams& params,
                                          Xoshiro256& rng) {
  RDCN_ASSERT(num_racks >= 2);
  // Per-rack activity weights: power law over a random rack permutation.
  std::vector<double> activity(num_racks);
  std::vector<std::size_t> rank(num_racks);
  for (std::size_t i = 0; i < num_racks; ++i) rank[i] = i;
  shuffle(rank.begin(), rank.end(), rng);
  for (std::size_t i = 0; i < num_racks; ++i)
    activity[i] =
        1.0 / std::pow(static_cast<double>(rank[i] + 1), params.rack_skew);

  // Gravity model: weight(u,v) proportional to activity(u) * activity(v).
  std::vector<double> w(num_racks * num_racks, 0.0);
  for (std::size_t u = 0; u < num_racks; ++u)
    for (std::size_t v = u + 1; v < num_racks; ++v)
      w[u * num_racks + v] = activity[u] * activity[v];

  // Elephant entries: lift a few random off-diagonal cells to a fixed
  // multiple of the MEAN cell weight.  (An absolute lift, not a
  // multiplicative one: multiplying the already-heaviest gravity cells
  // would let a single pair dominate the whole matrix.)
  double mean_cell = 0.0;
  const std::size_t num_cells = num_racks * (num_racks - 1) / 2;
  for (std::size_t u = 0; u < num_racks; ++u)
    for (std::size_t v = u + 1; v < num_racks; ++v)
      mean_cell += w[u * num_racks + v];
  mean_cell /= static_cast<double>(num_cells);
  for (std::size_t e = 0; e < params.num_elephants; ++e) {
    const std::size_t u = rng.next_below(num_racks);
    std::size_t v = rng.next_below(num_racks - 1);
    if (v >= u) ++v;
    const std::size_t lo = u < v ? u : v, hi = u < v ? v : u;
    w[lo * num_racks + hi] =
        std::max(w[lo * num_racks + hi], params.elephant_boost * mean_cell);
  }

  // Normalize over unordered pairs and mirror for convenience.
  double total = 0.0;
  for (std::size_t u = 0; u < num_racks; ++u)
    for (std::size_t v = u + 1; v < num_racks; ++v)
      total += w[u * num_racks + v];
  // A steep rack_skew can underflow every pair weight to zero.
  if (!(total > 0.0))
    throw SpecError(
        "workload 'microsoft': parameter 'rack_skew' leaves no rack pair "
        "with weight");
  for (std::size_t u = 0; u < num_racks; ++u)
    for (std::size_t v = u + 1; v < num_racks; ++v) {
      w[u * num_racks + v] /= total;
      w[v * num_racks + u] = w[u * num_racks + v];
    }
  return w;
}

namespace {

/// Matrix sampling state behind stream_microsoft_like: the setup (matrix +
/// alias table) consumes RNG draws in construction order, each step() is
/// one alias draw.
class MicrosoftEmitter {
 public:
  MicrosoftEmitter(std::size_t num_racks, const MicrosoftParams& params,
                   Xoshiro256& rng)
      : rng_(rng), sampler_(flatten(num_racks, params, rng)) {}

  Request step() { return pairs_[sampler_(rng_)]; }

 private:
  /// Builds the matrix, flattens unordered pairs into pairs_, and returns
  /// the matching weight vector for the alias sampler.
  std::vector<double> flatten(std::size_t num_racks,
                              const MicrosoftParams& params,
                              Xoshiro256& rng) {
    const std::vector<double> matrix =
        make_microsoft_matrix(num_racks, params, rng);
    std::vector<double> weights;
    weights.reserve(num_racks * (num_racks - 1) / 2);
    pairs_.reserve(weights.capacity());
    for (Rack u = 0; u < num_racks; ++u)
      for (Rack v = u + 1; v < num_racks; ++v) {
        weights.push_back(matrix[static_cast<std::size_t>(u) * num_racks + v]);
        pairs_.push_back(Request{u, v});
      }
    return weights;
  }

  Xoshiro256& rng_;
  std::vector<Request> pairs_;
  AliasSampler sampler_;
};

}  // namespace

std::unique_ptr<TraceStream> stream_microsoft_like(
    std::size_t num_racks, std::size_t num_requests,
    const MicrosoftParams& params, const Xoshiro256& rng) {
  return std::make_unique<EmitterStream<MicrosoftEmitter>>(
      num_racks, "microsoft", num_requests, rng, params);
}

}  // namespace rdcn::trace
