// rdcn: the request-driven simulator.
//
// Feeds a trace through an online matcher exactly as the model prescribes
// (serve with the current matching, then reconfigure) and snapshots
// cumulative costs at a checkpoint grid.  Replay is *batched*: requests go
// to OnlineBMatcher::serve_batch in fixed-size chunks (kServeChunk) that
// are clipped at checkpoint boundaries, so checkpoint semantics are
// unchanged — a chunked run's ledger is bit-identical to a replay in
// one-request batches at every grid point (pinned by the batch
// differential suite against the reference replay in the tests).  There
// is one chunk loop, and it serves spans of a trace::SharedTrace in place;
// a materialized Trace is replayed through a SharedTrace that borrows it.
// Wall-clock measurement covers the matcher only — checkpointing,
// reporting and request production (generating a block the trace does not
// have yet, or waiting for the task that generates it) are excluded,
// mirroring the paper's execution-time methodology (trace generation
// excluded).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cancel.hpp"
#include "core/online_matcher.hpp"
#include "sim/metrics.hpp"
#include "trace/shared_trace.hpp"
#include "trace/trace.hpp"

namespace rdcn::sim {

/// Requests per serve_batch chunk: 4096 requests = 32 KiB of AoS scratch,
/// so a chunk's working set (scratch + touched columns) stays L2-resident
/// while still amortizing the per-chunk virtual dispatch to nothing.
inline constexpr std::size_t kServeChunk = 4096;

/// Evenly spaced checkpoint grid: `points` checkpoints ending exactly at
/// `total_requests`.  Throws SpecError unless 1 <= points <= total_requests.
std::vector<std::uint64_t> checkpoint_grid(std::uint64_t total_requests,
                                           std::size_t points);

/// Live-run controls for the serving layer: cooperative cancellation plus
/// checkpoint streaming.  The default-constructed value is a no-op on the
/// replay loop (one inert-token check per chunk).
struct RunControl {
  /// Polled at every chunk boundary (every kServeChunk requests, plus at
  /// each checkpoint clip): once it fires the run throws CancelledError
  /// without serving another chunk.  The matcher is left in its
  /// mid-run state; ledgers up to the last completed chunk are intact.
  CancelToken cancel{};
  /// Called right after each checkpoint row is captured (clock paused), in
  /// grid order, on the thread running the simulation.  Lets a daemon
  /// stream progress without waiting for the RunResult.
  std::function<void(const Checkpoint&)> on_checkpoint{};
};

/// Runs a fresh `matcher` over `trace` with chunked replay, reading it up
/// to one kProduceBlock block at a time and producing the blocks it lacks
/// (control.cancel stops that production too).  `checkpoints` must be
/// non-decreasing; the last entry is clamped to trace.total().  A
/// checkpoint of 0 snapshots the pre-trace (zero-cost) state, which is
/// also how an empty trace yields a ledger.  No request beyond the last
/// checkpoint is served, and no block beyond the one that holds it is
/// produced.
RunResult run_simulation(core::OnlineBMatcher& matcher,
                         trace::SharedTrace& trace,
                         std::vector<std::uint64_t> checkpoints,
                         const RunControl& control = {});

/// The same replay over a materialized trace.
RunResult run_simulation(core::OnlineBMatcher& matcher,
                         const trace::Trace& trace,
                         std::vector<std::uint64_t> checkpoints,
                         const RunControl& control = {});

/// Convenience: single final checkpoint only.
RunResult run_to_completion(core::OnlineBMatcher& matcher,
                            const trace::Trace& trace);

}  // namespace rdcn::sim
