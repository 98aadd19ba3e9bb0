// rdcn_obs: phase timers / trace spans.
//
// `ObsSpan` is an RAII phase timer over the shared MonotonicClock.  Each
// thread owns a span *tree*: nested spans on one thread become parent →
// child edges, and a span records (count, total_ns) into its node on
// exit.  `collect_phases()` merges the per-thread trees by name path
// into one aggregate, which renders as JSON (`--metrics-dump`) or as an
// indented text report (`rdcn_sim --profile`).
//
// Cost contract (the fault.hpp bar): tracing is OFF by default, and a
// disabled ObsSpan is ONE relaxed atomic load — no clock read, no TLS
// walk.  The simulator's chunk loop therefore pays one load per chunk
// (4096 requests) when nobody is profiling.  Enabling tracing (set_tracing(true)) turns on clock reads and
// node bookkeeping; the daemon does this at start(), rdcn_sim does it
// under --profile.
//
// Thread-safety: a node's (count, total_ns) are relaxed atomics written
// by the owning thread and read by collectors.  Tree-structure mutation
// (first entry into a phase on a thread) and collection share one global
// mutex; steady-state span entry/exit touches no lock.
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
/// Pushes a phase node for this thread (creating it on first entry) and
/// returns it; the caller stamps the start time.
TraceNode* span_enter(const char* name);
void span_exit(TraceNode* node, std::uint64_t elapsed_ns);
}  // namespace detail

inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Global switch.  Flipping it mid-span is benign: spans only record on
/// exit if they observed it on on entry.
void set_tracing(bool on);

/// Stable storage for a dynamically-built span name ("algo." + name):
/// ObsSpan keeps only the pointer, so the bytes must outlive every node
/// that references them.  Interned strings live forever (the set is
/// bounded by distinct names — registry entries, not requests).  Returns
/// the same pointer for the same name, keeping span_enter's pointer-
/// equality fast path effective.
const char* intern_span_name(const std::string& name);

class ObsSpan {
 public:
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

/// One merged phase, pre-order.  `depth` is 0 for top-level phases;
/// parents precede children.
struct PhaseTotal {
  std::string name;      ///< phase name (one path segment)
  std::string path;      ///< "/"-joined path from a top-level phase
  int depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Merges all threads' span trees by name path (same phase on N threads
/// aggregates into one row).  Safe to call while spans are running;
/// in-flight spans simply haven't recorded yet.
std::vector<PhaseTotal> collect_phases();

/// Sum of total_ns over entries matching `name` at any depth (a phase
/// run both on the main thread and inside pool workers counts once per
/// recorded exit either way).
std::uint64_t phase_total_ns(const std::vector<PhaseTotal>& phases,
                             const std::string& name);

/// Zeroes every node's totals (tree structure is kept).
void reset_traces();

/// Merged tree as nested JSON:
///   [{"name":..,"count":N,"total_seconds":S,"children":[...]}, ...]
std::string trace_json();

/// Indented per-phase report; percentages are of each parent's total.
void write_profile_report(std::ostream& out);

}  // namespace rdcn::obs
