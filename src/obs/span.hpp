// rdcn_obs: phase timers / trace spans.
//
// `ObsSpan` is an RAII phase timer over the shared MonotonicClock.  The
// process keeps ONE span *tree*: a span opens under the span that is
// current on its thread (a child node per distinct name), records
// (count, total_ns) into its node on exit, and makes its parent current
// again.  A thread with no open span opens at the root.  Work handed to
// another thread carries its context along: `current_span()` on the
// submitting thread, a `SpanParent` on the thread that runs it (the
// ThreadPool does this for every job), so a pool worker's spans nest
// under the span that submitted its job.  `collect_phases()` flattens the
// tree into rows, which render as JSON (`--metrics-dump`) or as an
// indented text report (`rdcn_sim --profile`).  Spans of the same path
// aggregate into one node, whichever thread ran them — so two runs that
// execute at the same time share their rows.
//
// Cost contract (the fault.hpp bar): tracing is OFF by default, and a
// disabled ObsSpan is ONE relaxed atomic load — no clock read, no TLS
// walk.  The simulator's chunk loop therefore pays one load per chunk
// (4096 requests) when nobody is profiling.  Enabling tracing
// (set_tracing(true)) turns on clock reads and node bookkeeping; the
// daemon does this at start(), rdcn_sim does it under --profile.
//
// Thread-safety: a node's (count, total_ns) are relaxed atomics.  Its
// children are an append-only list: a new child is linked in under one
// global mutex and published with a release store, and nodes are never
// freed.  So a span whose node exists takes no lock, and collectors read
// the tree without one (in-flight spans simply haven't recorded yet).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace rdcn::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
struct TraceNode;
/// Makes the child `name` of this thread's current node (created on
/// first entry) current and returns it; the caller stamps the start time.
TraceNode* span_enter(const char* name);
void span_exit(TraceNode* node, std::uint64_t elapsed_ns);
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Global switch.  Flipping it mid-span is benign: spans only record on
/// exit if they observed it on entry.
void set_tracing(bool on);

class ObsSpan {
 public:
  /// `name` is copied when its node is created, so it need not outlive
  /// the span.
  explicit ObsSpan(const char* name) noexcept {
    if (tracing_enabled()) {
      node_ = detail::span_enter(name);
      start_ns_ = monotonic_now_ns();
    }
  }
  ~ObsSpan() {
    if (node_ != nullptr)
      detail::span_exit(node_, monotonic_now_ns() - start_ns_);
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  detail::TraceNode* node_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// Where a thread's next span opens: a node of the tree (nullptr = the
/// root).  Valid for the life of the process.
using SpanContext = detail::TraceNode*;

/// This thread's context: its innermost open span, or the root.
SpanContext current_span() noexcept;

/// For its scope, this thread's spans open under `parent` (typically
/// another thread's current_span()); its own context comes back after.
class SpanParent {
 public:
  explicit SpanParent(SpanContext parent) noexcept;
  ~SpanParent();
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;

 private:
  SpanContext saved_;
};

/// One phase, pre-order.  `depth` is 0 for top-level phases; parents
/// precede children, and siblings come in name order.
struct PhaseTotal {
  std::string name;      ///< phase name (one path segment)
  std::string path;      ///< "/"-joined path from a top-level phase
  int depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// The tree as rows.  Safe to call while spans are running.
std::vector<PhaseTotal> collect_phases();

/// Sum of total_ns over entries matching `name` at any depth.
std::uint64_t phase_total_ns(const std::vector<PhaseTotal>& phases,
                             const std::string& name);

/// Zeroes every node's totals (tree structure is kept).
void reset_traces();

/// The tree as nested JSON:
///   [{"name":..,"count":N,"total_seconds":S,"children":[...]}, ...]
std::string trace_json();

/// Indented per-phase report; percentages are of each parent's total.
void write_profile_report(std::ostream& out);

}  // namespace rdcn::obs
