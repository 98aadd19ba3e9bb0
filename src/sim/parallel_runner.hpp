// rdcn: multi-threaded trial execution.
//
// The paper repeats every simulation five times and averages.  Trials are
// embarrassingly parallel (each owns its matcher and RNG stream), so an
// atomic cursor over the index space extracts all the parallelism with no
// shared mutable state beyond the cursor.  Work runs on the process-wide
// persistent ThreadPool (sim/thread_pool.hpp): threads are spawned once
// for the whole process, not per call, and the callable is passed through
// a templated trampoline — no std::function type erasure, so per-trial
// closures inline into the dispatch loop.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

#include "sim/thread_pool.hpp"

namespace rdcn::sim {

/// Runs fn(i) for i in [0, count) across up to `num_threads` threads
/// (0 = hardware concurrency; the calling thread participates).  fn must
/// be safe to call concurrently for distinct i and must not throw.
/// Blocks until every task finished.  Indices start in increasing order,
/// but fn(i) must never wait for another index to start (ThreadPool::run).
/// On any thread, fn(i) runs under the caller's current span, so its
/// phases nest where the caller's would (obs/span.hpp).
template <typename F>
void parallel_for(std::size_t count, F&& fn, std::size_t num_threads = 0) {
  using Fn = std::remove_reference_t<F>;
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t workers =
      num_threads != 0 ? num_threads : pool.num_workers();
  Fn& ref = fn;
  pool.run(
      count, workers < count ? workers : count,
      [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(ref))));
}

}  // namespace rdcn::sim
