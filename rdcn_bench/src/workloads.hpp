// rdcn_bench: the three workloads.  See ../METHODS.md for why each was
// chosen and what every metric means.
#pragma once

#include <cstdint>
#include <string>

#include "stats.hpp"

namespace rdcn::bench {

/// The workload seed the goldens and the committed numbers use.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Times each run sets its workload up; setup_s is the median.
inline constexpr int kSetupReps = 5;

struct RunContext {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;  ///< per-layer run instead of the end-to-end one
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one failed operation and explains the first few on stderr.
  void fail(const std::string& what);
};

// Each fills ctx.report with the end-to-end metrics (trace off) or the
// per-layer metrics (trace on), and ctx.attempted / ctx.failed.
void run_replay_1m(RunContext& ctx);
void run_sweep_1k_cold(RunContext& ctx);
void run_serve_cached(RunContext& ctx);

}  // namespace rdcn::bench
