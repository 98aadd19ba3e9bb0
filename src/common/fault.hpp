// rdcn: deterministic fault injection for resilience testing.
//
// A fault *point* is a named site in production code — a socket send, a
// cache write, an executor launch — that asks "should I fail here, now?"
// before doing its real work.  Tests (or an operator reproducing an
// incident) *arm* points with a trigger: fire after the first N
// evaluations, at most M times, and/or with probability p from a seeded
// generator — so every failure a test provokes is reproducible.
//
// The subsystem is inert by default and designed to cost nothing when
// disabled: `fault::fire(point)` compiles to one relaxed atomic load and
// a never-taken branch until something is armed (the golden ledger
// anchors stay green with the hooks compiled in).  Only once a point is
// armed does evaluation take the registry mutex.
//
// Arming:
//   * programmatically: fault::arm("serve.send.short_write", {.after=3});
//   * via spec string:  fault::arm_from_spec("a=times:1;b=after:2,p:0.5")
//   * via environment:  RDCN_FAULTS with the same syntax (picked up by
//     Daemon::start, so a spawned daemon can be fault-armed from a test).
//
// Spec grammar, mirroring the scenario compact-spec style:
//   faults  := point-spec (';' point-spec)*
//   point   := name ['=' trigger (',' trigger)*]    bare name = always fire
//   trigger := 'after:N' | 'times:N' | 'p:F' | 'seed:N'
//
// Points used by the serving stack (see serve/daemon.cpp, disk_cache.cpp):
//   serve.send.short_write   truncate one socket write, mark conn broken
//   serve.send.drop          shut the connection down instead of sending
//   serve.admit.reject       force a REJECT backpressure reply
//   serve.executor.crash     throw a non-SpecError from an executor
//   serve.disk_cache.torn_write   commit a truncated cache entry
//   serve.disk_cache.write_fail   drop a cache write on the floor
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rdcn::fault {

/// One point's firing rule.  Evaluation k (0-based) fires iff
/// k >= after, fewer than `times` firings have happened, and a draw from
/// the point's seeded stream lands under `probability`.
struct Trigger {
  std::uint64_t after = 0;  ///< skip the first `after` evaluations
  std::uint64_t times = std::numeric_limits<std::uint64_t>::max();
  double probability = 1.0;  ///< fire chance per eligible evaluation
  std::uint64_t seed = 0x5eed'fa17ULL;  ///< stream for `probability` draws
};

namespace detail {
/// True iff at least one point is armed anywhere in the process.  The
/// only state the disabled fast path touches.
extern std::atomic<bool> g_armed;
/// Slow path: full trigger evaluation under the registry mutex.
bool should_fire(const char* point);
}  // namespace detail

/// True when any point is armed (cheap, callable on hot paths).
inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// The production-code hook: true when `point` is armed and its trigger
/// fires for this evaluation.  One relaxed load when nothing is armed.
inline bool fire(const char* point) {
  return armed() && detail::should_fire(point);
}

/// Arms (or re-arms, resetting counters) one point.
void arm(const std::string& point, const Trigger& trigger = {});

/// Disarms one point / everything.  disarm_all() also resets counters and
/// is what test fixtures call between cases.
void disarm(const std::string& point);
void disarm_all();

/// Parses and arms a fault spec string (grammar above).  Empty string is
/// a no-op.  Throws SpecError on malformed specs.
void arm_from_spec(const std::string& spec);

/// arm_from_spec(getenv("RDCN_FAULTS")); no-op when unset.
void arm_from_env();

/// How many times `point` fired / was evaluated since armed (0 for
/// unknown points).  Tests assert on these.
std::uint64_t fire_count(const std::string& point);
std::uint64_t eval_count(const std::string& point);

/// Names of currently armed points, sorted (diagnostics/logging).
std::vector<std::string> armed_points();

/// Optional observer invoked (outside the registry mutex) each time a
/// point fires.  rdcn_obs installs one to count firings per point;
/// common/ stays dependency-free.  Not called on the disarmed fast path.
using FireObserver = void (*)(const char* point);
void set_fire_observer(FireObserver observer);

}  // namespace rdcn::fault
