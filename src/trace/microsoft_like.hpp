// rdcn: Microsoft-like (ProjecToR) workload.
//
// The paper's Microsoft dataset (§3.1, from Ghobadi et al., SIGCOMM'16) is
// "simply a probability distribution describing rack-to-rack communication"
// — a traffic matrix — from which the authors sample i.i.d.  The trace thus
// has *no temporal structure by design* but *significant spatial structure*
// (skewed).  The published matrix itself is not redistributable, so we
// synthesize a matrix with the same qualitative shape:
//
//   * per-rack activity follows a power law (a few racks source/sink most
//     traffic — ProjecToR reports most bytes concentrated on few ToR pairs),
//   * a sprinkle of super-hot "elephant entries" (cross-rack services),
//   * i.i.d. sampling via an O(1) alias sampler.
//
// The paper uses 50 racks and 1.75e6 requests.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stream.hpp"

namespace rdcn::trace {

struct MicrosoftParams {
  double rack_skew = 1.2;        ///< power-law exponent of rack activity
  std::size_t num_elephants = 25;///< extra super-hot matrix entries
  double elephant_boost = 30.0;  ///< weight multiplier for elephants
};

/// Builds the synthetic rack-to-rack probability matrix (row-major,
/// symmetric, zero diagonal, sums to 1 over unordered pairs counted once).
/// Raises SpecError when `params` leave every pair without weight.
std::vector<double> make_microsoft_matrix(std::size_t num_racks,
                                          const MicrosoftParams& params,
                                          Xoshiro256& rng);

/// Streams `num_requests` i.i.d. samples from the matrix (RNG
/// snapshotted; see trace/trace_stream.hpp).  Raises SpecError when the
/// parameters leave the matrix without weight.
std::unique_ptr<TraceStream> stream_microsoft_like(
    std::size_t num_racks, std::size_t num_requests,
    const MicrosoftParams& params, const Xoshiro256& rng);

}  // namespace rdcn::trace
